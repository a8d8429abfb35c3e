"""Command-line interface.

``gml describe <model.json>`` summarizes a model file;
``gml run --campaign ... --model ...`` executes a verification campaign;
the remaining subcommands answer single queries with bit-exact JSON.
Exit code is 0 only when nothing failed: 1 for recorded campaign
failures, 2 for usage or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import model as mdl
from .campaigns import CAMPAIGNS, describe_model, run_campaign_model
from .errors import GmlError, GmlInputError, ReportIoError
from .serialization import jsonify, load_model, matrix_from_obj, read_json, subspace_to_obj
from .spectral import SymMat, delta_threshold


def _parse_vector(text: str) -> np.ndarray:
    """Comma-separated numbers, no field empty; a blank text is the empty vector."""
    fields = text.split(",") if text.strip() else []
    try:
        vec = np.array([float(p) for p in fields], dtype=float)
    except ValueError:  # an empty field too
        raise GmlInputError(
            f"cannot parse vector '{text}'; expected comma-separated numbers") from None
    if not np.isfinite(vec).all():
        raise GmlInputError(f"vector '{text}' has a non-finite entry")
    return vec


def _parse_vectors(text: str) -> np.ndarray:
    """Semicolon-separated vectors of one length, no row blank."""
    parts = text.split(";")
    if not all(part.strip() for part in parts):
        raise GmlInputError(f"vectors '{text}' have an empty row")
    rows = [_parse_vector(part) for part in parts]
    if len({row.size for row in rows}) > 1:
        raise GmlInputError(f"vectors '{text}' have unequal lengths")
    return np.array(rows)


def _parse_matrix(text: str):
    """Accept 'diag:a,b,c', inline JSON rows, or '@file.json'."""
    if text.startswith("diag:"):
        return SymMat.diag(_parse_vector(text[len("diag:"):]))
    if text.startswith("@"):
        return matrix_from_obj(read_json(text[1:]))
    try:
        return matrix_from_obj(json.loads(text))
    except json.JSONDecodeError:
        raise GmlError(f"cannot parse matrix '{text}'; use diag:..., JSON rows, or @file") from None


def _emit(obj) -> None:
    print(json.dumps(jsonify(obj), indent=2))


def _point_obj(p: mdl.ProjPoint) -> dict:
    return {"point": list(p.coords), "support": list(p.support)}


_VECTOR_OPTIONS = ("--point", "--beta", "--eps", "--alphas")


def _join_vector_values(argv: list[str]) -> list[str]:
    """``--point -1,1`` as ``--point=-1,1``: argparse reads a value with a leading
    minus that is not one plain number as an option, and finds the vector missing."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_OPTIONS and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subcommands' too, are input errors: one line, exit 2."""

    def error(self, message):
        raise GmlInputError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gml", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summarize a model file")
    p.add_argument("model")

    p = sub.add_parser("run", help="run a verification campaign")
    p.add_argument("--campaign", required=True, choices=CAMPAIGNS)
    p.add_argument("--model", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--probe-tightness", action="store_true")

    for name, hlp in [("limit", "flow limit of a point"),
                      ("flow", "finite-time flow of a point"),
                      ("stabilizer", "stabilizer subalgebra of a point")]:
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--model", required=True)
        p.add_argument("--point", required=True)
        if name in ("limit", "flow"):
            p.add_argument("--beta", required=True)
        if name == "flow":
            p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("composed", help="composed flow limit along a basis")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--alphas", default=None, help="semicolon-separated directions")

    p = sub.add_parser("perturbed", help="flow limit along a perturbed direction")
    p.add_argument("--model", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--eps", required=True, help="comma-separated step sizes")
    p.add_argument("--alphas", default=None)

    p = sub.add_parser("delta", help="kernel perturbation threshold of a pair")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("components", help="fixed components of a direction")
    p.add_argument("--model", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("chain-threshold", help="uniform step-size box of a model basis")
    p.add_argument("--model", required=True)
    p.add_argument("--alphas", default=None)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _join_vector_values(sys.argv[1:] if argv is None else list(argv)))
        with np.errstate(over="ignore", invalid="ignore"):  # keep errors to one line
            return _dispatch(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    except GmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "describe":
        _emit(describe_model(args.model))
        return 0
    if cmd == "run":
        report = run_campaign_model(load_model(args.model), args.campaign, args.trials,
                                    args.seed, probe_tightness=args.probe_tightness)
        if args.out is None:
            print(report.dumps(), end="")
        else:
            try:
                Path(args.out).write_text(report.dumps())
            except OSError as exc:
                raise ReportIoError(f"cannot write report to {args.out}: {exc}") from None
            print(f"{report.campaign}: {report.passes}/{report.trials} passed "
                  f"-> {args.out}")
        return 0 if not report.failures else 1
    if cmd == "delta":
        value = delta_threshold(_parse_matrix(args.alpha), _parse_matrix(args.beta))
        _emit({"delta": value})
        return 0

    model = load_model(args.model)
    if cmd == "limit":
        p = mdl.flow_limit(model, _parse_vector(args.beta), mdl.ProjPoint(_parse_vector(args.point)))
        _emit(_point_obj(p))
    elif cmd == "flow":
        p = mdl.flow(model, _parse_vector(args.beta), args.t, mdl.ProjPoint(_parse_vector(args.point)))
        _emit(_point_obj(p))
    elif cmd == "composed":
        alphas = _parse_vectors(args.alphas) if args.alphas else None
        p = mdl.composed_limit(model, alphas, mdl.ProjPoint(_parse_vector(args.point)))
        _emit(_point_obj(p))
    elif cmd == "perturbed":
        alphas = _parse_vectors(args.alphas) if args.alphas else None
        p = mdl.perturbed_limit(model, alphas, _parse_vector(args.eps),
                                mdl.ProjPoint(_parse_vector(args.point)))
        _emit(_point_obj(p))
    elif cmd == "stabilizer":
        sub = mdl.stabilizer_algebra(model, mdl.ProjPoint(_parse_vector(args.point)))
        _emit({"ambient_dim": sub.ambient_dim, "basis": subspace_to_obj(sub)})
    elif cmd == "components":
        comps = mdl.fixed_components(model, _parse_vector(args.beta))
        _emit({"components": [{"indices": list(c.indices), "level": c.level, "dim": c.dim}
                              for c in comps]})
    elif cmd == "chain-threshold":
        alphas = _parse_vectors(args.alphas) if args.alphas else None
        _emit({"chain_threshold": mdl.model_chain_threshold(model, alphas)})
    else:  # pragma: no cover
        raise GmlError(f"unhandled command {cmd}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
