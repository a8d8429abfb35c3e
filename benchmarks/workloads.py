"""The benchmark's three workloads: inputs, op plans, timed rounds and checks.

Every input comes from the workload seed.  The model pool is the one the
acceptance suite uses at its seed: the square model, the repeated-weight
model and 50 ``random_weighted_model`` draws from ``substream(seed, 0)``.
The campaigns workload continues that stream for more models, so its
first 52 models are the acceptance pool.

A workload is a fixed plan of distinct ops.  A measured run executes the
whole plan in rounds, at least ``MIN_ROUNDS`` of them, and starts another
round only while it fits in ``--seconds``.  Each op's latency is its
fastest round: the host this runs on slows every op by up to 1.7 times
for seconds to minutes, and the fastest of several repeats spread over
the run is the figure least touched by that.  A spell that lasts the whole
run is taken out by scaling the latencies with a gml-free host reference
timed between ops (see ``Workload.host_scale``).  Repeated ops also let
the checks compare reports byte for byte.  Failure fractions are taken
over the plan's distinct ops, so at one seed they do not depend on how
fast the run went.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gml import campaigns, spectral
from gml import model as mdl
from gml import rng as grng
from gml import serialization

import tracer as trc
from cli_child import vmhwm_kb

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
CLI_CHILD = BENCH_DIR / "cli_child.py"
CLI_SHIM = BENCH_DIR / "cli_shim.py"
CHILD_TIMEOUT_S = 60

MIN_ROUNDS = 4  # each op is timed at least this many times
REF_EVERY_S = 0.05  # time the host reference this often during the rounds
# Each reference's 10th-percentile time on the host this benchmark was built
# on (2-core x86 VM, Python 3.11, numpy 2.4); latencies are scaled to it.
REF_LOOP_S = 0.74e-3
REF_SPAWN_S = 8.0e-3

POOL_RANDOM_MODELS = 50
# Campaign cost depends on the model, so the campaigns workload averages
# over more random models than the acceptance pool holds.
RANDOM_MODELS = {"campaigns": 148, "operators": POOL_RANDOM_MODELS}

# Trials per op, chosen so that the three exact campaigns cost about the
# same per op and none takes more than half of a round.
EXACT_TRIALS = (("theorem1", 200), ("theorem2", 50), ("convexity", 2))
# One numerics trial on each of the first NUMERICS_MODELS models.  These ops
# are checked and traced but not timed: a numerics trial's cost is
# heavy-tailed (horizon doubling reaches 8 to 800 ms), so whether a seed
# draws one of the slow ones would decide the round's time.
NUMERICS_MODELS = 24
LEMMA_TRIALS = 5
OPERATOR_OPS = 100
CLI_MODELS = 1       # pool models the cli mix runs on
CLI_RUN_TRIALS = 200


def square_model() -> mdl.WeightedModel:
    return mdl.WeightedModel(name="unit-square", weights=[[0, 0], [1, 0], [0, 1], [1, 1]],
                             subalgebra=[[1, 0], [0, 1]])


def segment_model() -> mdl.WeightedModel:
    return mdl.WeightedModel(name="repeated-weight", weights=[[1, 0], [1, 0], [0, 0]],
                             subalgebra=[[1, 0], [0, 1]])


def build_pool(seed: int, random_models: int = POOL_RANDOM_MODELS) -> list:
    rng = grng.substream(seed, 0)
    pool = [square_model(), segment_model()]
    pool += [mdl.random_weighted_model(rng, name=f"random-{k}") for k in range(random_models)]
    return pool


_REF_MATRIX = np.random.default_rng(0).standard_normal((9, 9))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T


def reference_loop_seconds() -> float:
    """Time of a fixed loop that does not touch gml: interpreter work and
    small LAPACK calls, the same mix as gml's own."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i
    names = {i: str(i) for i in range(300)}
    for _ in range(15):
        np.linalg.eigh(_REF_MATRIX)
        np.linalg.svd(_REF_MATRIX)
    del acc, names
    return time.perf_counter() - start


def reference_spawn_seconds() -> float:
    """Time to start and end a bare interpreter (``python -S -c pass``)."""
    start = time.perf_counter()
    subprocess.Popen([sys.executable, "-S", "-c", "pass"]).wait()
    return time.perf_counter() - start


def seed_list(seed: int, stream: int, count: int) -> list[int]:
    """Campaign seeds for ops, drawn from one substream of the workload seed."""
    return [int(x) for x in grng.substream(seed, stream).integers(0, 2**62, size=count)]


@dataclass(frozen=True)
class CampaignOp:
    model: int
    campaign: str
    trials: int
    seed: int


@dataclass(frozen=True, eq=False)
class CliOp:
    command: str
    args: tuple[str, ...]  # arguments after `python -m gml.cli`
    inputs: dict           # the same inputs as Python values, for the expected answer
    out_path: str | None = None  # report file written by `run --out`


@dataclass
class OpResult:
    seconds: float
    output: str | None  # report or stdout text; None when the op raised
    error: str | None = None
    rss_kb: int = 0


@dataclass
class CheckResult:
    problems: list[str]
    units: int         # distinct trials (campaigns) or invocations (cli) in the plan
    failed_units: int
    failed_ops: int    # op executions that raised or broke a check
    by_campaign: dict = field(default_factory=dict)  # {campaign: [failed, attempted] units}


def strip_wall_time(report_text: str) -> str:
    obj = json.loads(report_text)
    obj.pop("wall_time")
    return json.dumps(obj)


def _vector_arg(vec) -> str:
    return ",".join(repr(float(v)) for v in vec)


def _normalized(obj):
    """The value as it reads back from JSON, for comparison with parsed output."""
    return json.loads(json.dumps(serialization.jsonify(obj)))


class Workload:
    """Shared part of every workload: timed rounds over the plan and end-to-end metrics."""

    unit = "trials"
    # host reference timed between ops, and its time on the reference host
    reference = staticmethod(reference_loop_seconds)
    reference_nominal_s = REF_LOOP_S

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.workdir = WORK_DIR / name
        self.pool: list = []
        self.plan: list = []
        self.n_timed = 0  # plan[:n_timed] is timed; the rest only checked and traced

    def setup(self) -> None:
        """Inputs, files and one untimed warm-up op per campaign."""
        raise NotImplementedError

    def run_op(self, op) -> OpResult:
        raise NotImplementedError

    def check(self, results) -> CheckResult:
        raise NotImplementedError

    def timed_rounds(self, seconds: float):
        """Run the timed ops ``MIN_ROUNDS`` times, then once more while
        another round fits in ``seconds``; then the untimed ops once.

        Round r runs on the r-th allowed CPU in turn (children inherit it),
        so every op's fastest round is taken over each core the host gives.
        Between ops, at most every ``REF_EVERY_S``, the host reference is
        timed too.
        Returns ([(plan index, OpResult)], rounds, wall s of the rounds,
        [reference s])."""
        timed = self.plan[:self.n_timed]
        cpus = sorted(os.sched_getaffinity(0))
        results, ref = [], []
        rounds = 0
        start = last_ref = time.perf_counter()
        try:
            while True:
                os.sched_setaffinity(0, {cpus[rounds % len(cpus)]})
                for k, op in enumerate(timed):
                    if time.perf_counter() - last_ref >= REF_EVERY_S:
                        ref.append(self.reference())
                        last_ref = time.perf_counter()
                    results.append((k, self.run_op(op)))
                rounds += 1
                wall = time.perf_counter() - start
                if rounds >= MIN_ROUNDS and wall * (rounds + 1) / rounds > seconds:
                    break
        finally:
            os.sched_setaffinity(0, cpus)
        results += [(k, self.run_op(self.plan[k])) for k in range(self.n_timed, len(self.plan))]
        return results, rounds, wall, ref

    def one_pass(self):
        start = time.perf_counter()
        results = [(k, self.run_op(op)) for k, op in enumerate(self.plan)]
        return results, time.perf_counter() - start

    def peak_rss_mb(self, results) -> float:
        return vmhwm_kb() / 1024.0

    def host_scale(self, ref_seconds: list[float]) -> tuple[float, float]:
        """(10th percentile of the reference's times in a run, and the
        factor that scales the run's latencies to the reference host)."""
        p10 = float(np.percentile(ref_seconds, 10))
        return p10, self.reference_nominal_s / p10

    def best_ms(self, results, scale: float = 1.0) -> np.ndarray:
        """Each timed op's fastest latency over the rounds, times scale, in ms."""
        best = np.full(self.n_timed, np.inf)
        for k, res in results:
            if k < self.n_timed:
                best[k] = min(best[k], res.seconds)
        return best * (1e3 * scale)

    def end_to_end(self, results, setup_s: float, scale: float = 1.0) -> dict:
        lat_ms = self.best_ms(results, scale)
        p50, p90 = np.percentile(lat_ms, [50, 90])
        return {
            "ops_per_s": (1e3 * len(lat_ms) / lat_ms.sum(), "1/s"),
            "op_p50_ms": (float(p50), "ms"),
            "op_p90_ms": (float(p90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb(results), "MB"),
        }

    def convexity_trials(self) -> int:
        return sum(op.trials for op in self.plan
                   if isinstance(op, CampaignOp) and op.campaign == "convexity")


class CampaignWorkload(Workload):
    """Ops are ``run_campaign_model`` calls whose reports are serialized."""

    def setup(self) -> None:
        self.pool = build_pool(self.seed, RANDOM_MODELS[self.name])
        if self.name == "campaigns":
            self.plan = [CampaignOp(m, campaign, trials, self.seed)
                         for m in range(len(self.pool)) for campaign, trials in EXACT_TRIALS]
            self.n_timed = len(self.plan)
            self.plan += [CampaignOp(m, "numerics", 1, self.seed)
                          for m in range(NUMERICS_MODELS)]
        elif self.name == "operators":
            # the lemma campaign draws its own operator pairs; the model only
            # names the report
            self.plan = [CampaignOp(0, "lemma-linearization", LEMMA_TRIALS, s)
                         for s in seed_list(self.seed, 1, OPERATOR_OPS)]
            self.n_timed = len(self.plan)
        else:
            raise ValueError(f"unknown campaign workload '{self.name}'")
        warmed = set()
        for op in self.plan[:self.n_timed]:
            if op.campaign not in warmed:
                warmed.add(op.campaign)
                self.run_op(op)

    def run_op(self, op: CampaignOp) -> OpResult:
        start = time.perf_counter()
        try:
            report = campaigns.run_campaign_model(self.pool[op.model], op.campaign,
                                                  op.trials, op.seed)
            text = report.dumps()
        except Exception as exc:  # an op that raises fails all of its trials
            return OpResult(time.perf_counter() - start, None,
                            error=f"{type(exc).__name__}: {exc}")
        return OpResult(time.perf_counter() - start, text)

    def check(self, results) -> CheckResult:
        problems: list[str] = []
        first: dict[int, str | None] = {}
        by_campaign: dict[str, list[int]] = {}
        units = failed_units = failed_ops = 0
        for k, res in results:
            op = self.plan[k]
            label = f"op {k} ({op.campaign}, model {op.model}, seed {op.seed})"
            tally = by_campaign.setdefault(op.campaign, [0, 0])
            if res.output is None:
                failed_ops += 1
                problems.append(f"{label} raised {res.error}")
                if k not in first:
                    first[k] = None
                    units += op.trials
                    failed_units += op.trials
                    tally[0] += op.trials
                    tally[1] += op.trials
                continue
            obj = json.loads(res.output)
            if obj["passes"] + len(obj["failures"]) != obj["trials"]:
                failed_ops += 1
                problems.append(f"{label}: passes + failures != trials")
            canon = strip_wall_time(res.output)
            if k in first:
                if canon != first[k]:
                    failed_ops += 1
                    problems.append(f"{label}: repeated report differs from the first")
                continue
            first[k] = canon
            units += obj["trials"]
            failed_units += obj["trials"] - obj["passes"]
            tally[0] += obj["trials"] - obj["passes"]
            tally[1] += obj["trials"]
        return CheckResult(problems, units, failed_units, failed_ops, by_campaign)


class CliWorkload(Workload):
    """Ops are fresh processes running ``gml.cli`` as ``python -m gml.cli``
    does, one at a time."""

    unit = "invocations"
    # a gml process is mostly interpreter start-up and imports, which a
    # slow host stretches more than it does in-process work
    reference = staticmethod(reference_spawn_seconds)
    reference_nominal_s = REF_SPAWN_S

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.expected: list | None = None

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pool = build_pool(self.seed)
        paths = []
        for k, model in enumerate(self.pool):
            path = self.workdir / f"model-{k}.json"
            serialization.save_model(model, path)
            paths.append(str(path))
        rng = grng.substream(self.seed, 3)
        run_seeds = seed_list(self.seed, 4, CLI_MODELS)
        self.plan = []
        for k in range(CLI_MODELS):
            model, path = self.pool[k], paths[k]
            beta = model.ortho_basis.T @ grng.unit_vector(rng, model.subalgebra_dim)
            point = grng.unit_vector(rng, model.num_coords)
            fam = spectral.random_commuting_family(rng, int(rng.integers(2, 13)))
            mats = []
            for tag, mat in zip("ab", fam.members):
                mpath = self.workdir / f"matrix-{k}{tag}.json"
                mpath.write_text(json.dumps(serialization.matrix_to_obj(mat)))
                mats.append(str(mpath))
            out = str(self.workdir / f"report-{k}.json")
            self.plan += [
                CliOp("describe", ("describe", path), {"model": path}),
                CliOp("limit", ("limit", "--model", path, f"--point={_vector_arg(point)}",
                                f"--beta={_vector_arg(beta)}"),
                      {"model": path, "point": point, "beta": beta}),
                CliOp("composed", ("composed", "--model", path, f"--point={_vector_arg(point)}"),
                      {"model": path, "point": point}),
                CliOp("delta", ("delta", "--alpha", "@" + mats[0], "--beta", "@" + mats[1]),
                      {"matrices": mats}),
                CliOp("run", ("run", "--campaign", "theorem2", "--model", path, "--trials",
                              str(CLI_RUN_TRIALS), "--seed", str(run_seeds[k]), "--out", out),
                      {"model": path, "seed": run_seeds[k]}, out_path=out),
            ]
        self.n_timed = len(self.plan)
        self.run_op(self.plan[0])

    def expected_outputs(self) -> list:
        """What each invocation must print, computed in-process (untimed)."""
        expected = []
        for op in self.plan:
            inp = op.inputs
            if op.command == "describe":
                obj = campaigns.describe_model(inp["model"])
            elif op.command == "delta":
                obj = {"delta": spectral.delta_threshold(*[
                    serialization.matrix_from_obj(json.loads(Path(p).read_text()))
                    for p in inp["matrices"]])}
            elif op.command == "run":
                report = campaigns.run_campaign_model(serialization.load_model(inp["model"]),
                                                      "theorem2", CLI_RUN_TRIALS, inp["seed"])
                obj = json.loads(strip_wall_time(report.dumps()))
            else:
                model = serialization.load_model(inp["model"])
                x = mdl.ProjPoint(inp["point"])
                if op.command == "limit":
                    p = mdl.flow_limit(model, inp["beta"], x)
                else:
                    p = mdl.composed_limit(model, None, x)
                obj = {"point": list(p.coords), "support": list(p.support)}
            expected.append(_normalized(obj))
        return expected

    def run_op(self, op: CliOp, spans_path: Path | None = None) -> OpResult:
        """One child process; through the tracing shim when spans_path is given."""
        hwm_path = self.workdir / "child.hwm"
        if spans_path is None:
            argv = [sys.executable, str(CLI_CHILD), str(hwm_path), *op.args]
        else:
            argv = [sys.executable, str(CLI_SHIM), str(spans_path), *op.args]
        for path in (op.out_path, hwm_path):
            if path:
                Path(path).unlink(missing_ok=True)
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        # A blocking wait returns as soon as the child exits; a wait with a
        # timeout polls every 50 ms and would round latencies to that step.
        # A timer thread kills a child that hangs instead.
        hung = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=BENCH_DIR.parent)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, lambda: (hung.set(), proc.kill()))
            watchdog.start()
            try:
                returncode = proc.wait()
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        error = None
        if hung.is_set():
            error = f"no exit within {CHILD_TIMEOUT_S} s"
        elif returncode != 0:
            error = f"exit {returncode}: {err_path.read_text().strip()[-300:]}"
        text_path = Path(op.out_path) if op.out_path else out_path
        text = text_path.read_text() if text_path.is_file() else None
        rss_kb = int(hwm_path.read_text()) if hwm_path.is_file() else 0
        return OpResult(seconds, text, error=error, rss_kb=rss_kb)

    def check(self, results) -> CheckResult:
        if self.expected is None:
            self.expected = self.expected_outputs()
        problems: list[str] = []
        seen = set()
        failed_units = failed_ops = 0
        for k, res in results:
            op = self.plan[k]
            problem = res.error
            if problem is None and res.output is None:
                problem = "no output"
            if problem is None:
                try:
                    obj = json.loads(res.output)
                except json.JSONDecodeError as exc:
                    problem = f"output is not JSON: {exc}"
                else:
                    if op.command == "run":
                        if obj["passes"] + len(obj["failures"]) != obj["trials"]:
                            problem = "report breaks passes + failures == trials"
                        obj.pop("wall_time")
                    if problem is None and obj != self.expected[k]:
                        problem = "output differs from the in-process answer"
            if problem is not None:
                failed_ops += 1
                problems.append(f"cli op {k} ({' '.join(op.args[:1])}): {problem}")
                if k not in seen:
                    failed_units += 1
            seen.add(k)
        return CheckResult(problems, len(seen), failed_units, failed_ops)

    def peak_rss_mb(self, results) -> float:
        return max(r.rss_kb for _, r in results) / 1024.0


def make_workload(name: str, seed: int) -> Workload:
    if name == "cli":
        return CliWorkload(name, seed)
    return CampaignWorkload(name, seed)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: trc.Spans, setup_sp: trc.Spans, convexity_trials: int,
                  import_s: list[float], overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m: dict = {}

    def calls(*names):
        for n in names:
            m[f"{n}.calls"] = (sp.calls(n), "count")

    def self_s(*names):
        for n in names:
            m[f"{n}.self_s"] = (sp.self_s(n), "s")

    calls("rng.substream")
    self_s("rng.substream")
    calls("rng.unit_vector", "rng.open_uniform")
    for n in ("ProjPoint", "validate_direction", "require_basis", "flow_limit", "flow",
              "gradient_map", "direction_certificate", "model_chain_threshold",
              "fixed_components"):
        calls(f"model.{n}")
        self_s(f"model.{n}")
    self_s("model.composed_limit", "model.perturbed_limit")
    m["model.random_weighted_model.accept_ratio"] = (_ratio(
        setup_sp.calls("model.random_weighted_model"),
        setup_sp.calls_under("model.WeightedModel", "model.random_weighted_model")), "ratio")

    calls("hull.Polytope")
    self_s("hull.Polytope")
    m["hull.Polytope.builds_per_trial"] = (_ratio(sp.calls("hull.Polytope"), convexity_trials),
                                           "ratio")
    calls("hull.contains")
    self_s("hull.contains")
    calls("hull.strictly_inside")
    self_s("hull.strictly_inside")
    calls("hull.supporting_direction")

    for n in ("SymMat", "joint_diagonalize", "kernel", "subspace_intersection",
              "perturbed_kernel_equality", "delta_threshold_witness"):
        calls(f"spectral.{n}")
        self_s(f"spectral.{n}")
    self_s("spectral.random_commuting_family")
    calls("spectral.commutator_norm")
    m["spectral.commutator_checks_per_call"] = (_ratio(
        sp.calls("spectral.commutator_norm"),
        sp.calls("spectral.delta_threshold_witness") + sp.calls("spectral.perturbed_kernel_equality")),
        "ratio")

    for n in ("rk4_step", "integrate_flow", "numeric_limit", "gradient_fd_check",
              "monotonicity_check"):
        calls(f"numerics.{n}")
        self_s(f"numerics.{n}")
    m["numerics.rk4_steps_per_limit"] = (_ratio(
        sp.calls_under("numerics.rk4_step", "numerics.numeric_limit"),
        sp.calls("numerics.numeric_limit")), "ratio")
    m["numerics.proj_points_per_step"] = (_ratio(
        sp.calls_under("model.ProjPoint", "numerics.integrate_flow", direct=True),
        sp.calls_under("numerics.rk4_step", "numerics.integrate_flow", direct=True)), "ratio")

    self_s("campaigns.run")
    calls("campaigns.random_point")
    self_s("campaigns.random_point")
    gapped = sp.calls("campaigns.gapped_direction")
    untestable = sp.status_count("campaigns.gapped_direction", trc.RETURNED_NONE)
    calls("campaigns.gapped_direction")
    m["campaigns.gapped_direction.accept_ratio"] = (_ratio(gapped - untestable, gapped), "ratio")
    m["campaigns.gapped_direction.draws_per_call"] = (_ratio(
        sp.calls_under("rng.unit_vector", "campaigns.gapped_direction", direct=True), gapped),
        "ratio")
    m["campaigns.untestable_trials"] = (untestable, "count")
    self_s("campaigns.dumps")

    calls("serialization.load_model")
    self_s("serialization.load_model")
    calls("serialization.jsonify")
    self_s("serialization.jsonify")
    m["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    self_s("cli.main")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m


def run_traced(wl: Workload):
    """One untraced and one traced pass of the plan, after setup.

    The traced pass repeats every op of the untraced one, so the usual
    checks also compare traced reports with untraced ones.  The pool is
    built once more under a tracer of its own for the setup ratio.
    Returns (per-layer metrics, checks, results of both passes, pass info).
    """
    untraced, wall_u = wl.one_pass()
    setup_tracer = trc.Tracer()
    with setup_tracer:
        build_pool(wl.seed, len(wl.pool) - 2)
    if isinstance(wl, CliWorkload):
        paths = [wl.workdir / f"spans-{k}.npz" for k in range(len(wl.plan))]
        start = time.perf_counter()
        traced = [(k, wl.run_op(op, spans_path=paths[k])) for k, op in enumerate(wl.plan)]
        wall_t = time.perf_counter() - start
        parts, import_s = [], []
        for path in paths:
            if path.is_file():
                parts.append(trc.Spans.load(path))
                with np.load(path) as data:
                    import_s.append(float(data["import_s"]))
                path.unlink()
        spans = trc.Spans.concat(parts)
    else:
        tracer = trc.Tracer()
        with tracer:
            traced, wall_t = wl.one_pass()
        spans, import_s = tracer.spans(), []
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    spans.save(WORK_DIR / f"spans-{wl.name}.npz")
    metrics = layer_metrics(spans, setup_tracer.spans(), wl.convexity_trials(), import_s,
                            wall_t / wall_u - 1.0)
    info = {"untraced_pass_s": wall_u, "traced_pass_s": wall_t, "spans": len(spans)}
    return metrics, wl.check(untraced + traced), untraced + traced, info
