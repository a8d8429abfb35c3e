"""Outside-in benchmark of gml: campaign, operator and CLI workloads.

Usage (from the repository root):

    python3 benchmarks/run.py --workload campaigns --seed 20260825 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --trace 1 --out benchmarks/results/traced.json

``--workload`` is one of campaigns, operators, cli, or all (the three in
turn, in this process).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass of the plan
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 1 when a correctness check fails and 2 when
the gml sources are missing.  See README.md in this directory.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Single-threaded BLAS in this process and, through the environment, in
# every child; it must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("campaigns", "operators", "cli")
DEFAULT_SEED = 20260825
SETUP_SAMPLES = 5  # setup_s is the median of this many fresh-process setups


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write results and versions to this file")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def setup_sample(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter spends on imports and the workload's setup."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def setup_seconds(workload: str, seed: int, wls) -> tuple[float, list[float], float]:
    """Median of SETUP_SAMPLES set-ups, scaled to the reference host by the
    bare-interpreter start-ups timed around them (set-up is mostly imports).
    Returns (scaled median, unscaled samples, scale)."""
    setups, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs += [wls.reference_spawn_seconds() for _ in range(3)]
        setups.append(setup_sample(workload, seed))
    scale = wls.REF_SPAWN_S / statistics.quantiles(refs, n=10)[0]
    return statistics.median(setups) * scale, setups, scale


def run_workload(name: str, args, wls) -> dict:
    """Measure one workload; returns its record for printing and --out."""
    if not args.trace:
        setup_s, setups, setup_scale = setup_seconds(name, args.seed, wls)
    wl = wls.make_workload(name, args.seed)
    wl.setup()
    record = {"plan_ops": len(wl.plan), "timed_ops": wl.n_timed}
    if args.trace:
        metrics, check, results, info = wls.run_traced(wl)
        record.update(info)
    else:
        results, rounds, wall, ref = wl.timed_rounds(args.seconds)
        ref_p10, scale = wl.host_scale(ref)
        metrics = wl.end_to_end(results, setup_s, scale)
        raw = wl.end_to_end(results, statistics.median(setups))
        record.update({"ops": len(results), "wall_s": wall, "rounds": rounds,
                       "beyond_p90": int((wl.best_ms(results, scale)
                                          > metrics["op_p90_ms"][0]).sum()),
                       "setup_samples_s": setups, "setup_scale": setup_scale,
                       "reference_p10_s": ref_p10,
                       "reference_samples": len(ref), "scale": scale,
                       "unscaled": {k: raw[k][0] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                                             "setup_s")}})
        check = wl.check(results)
    record.update({
        "correct": not check.problems, "attempted": len(results), "failed": check.failed_ops,
        "problems": check.problems[:20],
        "fail_by_campaign": check.by_campaign,
        "fail_frac": {"value": check.failed_units / check.units, "failed": check.failed_units,
                      "attempted": check.units, "unit": wl.unit},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return record


def print_record(name: str, rec: dict) -> None:
    ff = rec["fail_frac"]
    if "ops" in rec:
        m = rec["metrics"]
        print(f"{name}: {rec['rounds']} rounds of {rec['timed_ops']} timed ops in "
              f"{rec['wall_s']:.2f} s, then {rec['plan_ops'] - rec['timed_ops']} untimed ops; "
              f"latency is each op's fastest round, {rec['beyond_p90']} ops beyond p90")
        print(f"  host reference p10 {rec['reference_p10_s'] * 1e3:.4f} ms over "
              f"{rec['reference_samples']} samples; op latencies are scaled by "
              f"{rec['scale']:.4f} to the reference host (unscaled: "
              + ", ".join(f"{k} {v:.4f}" for k, v in rec["unscaled"].items()) + ")")
        for key in ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"):
            print(f"  {key:<12} {m[key]['value']:>12.4f} {m[key]['unit']}")
    else:
        print(f"{name}: untraced pass {rec['untraced_pass_s']:.2f} s, traced pass "
              f"{rec['traced_pass_s']:.2f} s, {rec['spans']} spans")
        for key, val in rec["metrics"].items():
            print(f"  {key:<48} {val['value']:>14.6g} {val['unit']}")
    print(f"  {'fail_frac':<12} {ff['value']:>12.4f} ({ff['failed']}/{ff['attempted']} {ff['unit']})")
    for campaign, (failed, attempted) in rec["fail_by_campaign"].items():
        print(f"    {campaign:<20} {failed}/{attempted} failed")
    for problem in rec["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gml" / "__init__.py").is_file():
        print(f"error: gml sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import gml
    if Path(gml.__file__).resolve().parent != (SRC / "gml").resolve():
        print(f"error: imported gml from {gml.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wls

    if args.setup_probe:
        wls.make_workload(args.workload, args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    env = environment()
    print(f"# gml benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        records[name] = run_workload(name, args, wls)
        print_record(name, records[name])
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"args": {k: v for k, v in vars(args).items() if k != "setup_probe"},
             "env": env, "results": records}, indent=2) + "\n")
    prefix = (lambda name: f"{name}.") if args.workload == "all" else (lambda name: "")
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {prefix(name) + key: val for name, r in records.items()
                    for key, val in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
