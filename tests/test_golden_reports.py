"""Golden reports: campaign output pinned byte for byte, wall_time stripped.

The goldens in ``tests/data/golden_reports.json`` pin replay of the
theorem1, theorem2 (with tightness probes, so failure records are
pinned too), convexity and numerics campaigns on the two canonical
models and two acceptance-pool models.  A numerics run with the
agreement tolerance ``campaigns._NUMERIC_EQ_TOL`` patched to 0 pins its
failure records (beta and point of each failing trial).  They also pin the lemma-linearization campaign,
which draws its own operator pairs: once as it runs, once with the
holds threshold ``spectral.HOLDS_TOL`` patched to 0 (failing eps rows
are recorded), and once with that threshold at 0 and every threshold
halved (each ``eps = delta`` tightness probe then sits inside the safe
range and fails, and is recorded only for trials whose eps rows all
hold).  Regenerate
them only when a report is meant to change, with
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import POOL_SEED, make_segment_model, make_square_model  # noqa: E402
from gml import campaigns, random_weighted_model, spectral  # noqa: E402
from gml import model as mdl  # noqa: E402
from gml.campaigns import run_campaign_model  # noqa: E402
from gml.rng import substream  # noqa: E402
from gml.spectral import HOLDS_TOL, chain_threshold_witness  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_reports.json"
POOL_PICKS = ("random-11", "random-14")
MODEL_NAMES = ("unit-square", "repeated-weight") + POOL_PICKS
# (campaign, trials, seed, probe_tightness)
RUNS = (
    ("theorem1", 120, 11, False),
    ("theorem2", 60, 12, True),
    ("convexity", 3, 13, False),
    ("numerics", 6, 18, False),
)
# (case id, model, trials, seed): the numerics campaign with _NUMERIC_EQ_TOL at 0
NUMERICS_EQ0_RUN = ("numerics/numeric_eq_tol=0", "repeated-weight", 8, 19)
# (case id, trials, seed, holds threshold at 0, halve every threshold)
LEMMA_RUNS = (
    ("lemma-linearization/unit-square", 30, 14, False, False),
    ("lemma-linearization/holds_tol=0", 10, 15, True, False),
    ("lemma-linearization/halved-delta", 10, 17, True, True),
)


def _models() -> dict:
    rng = substream(POOL_SEED, 0)
    models = {m.name: m for m in (make_square_model(), make_segment_model())}
    for k in range(max(int(name.split("-")[1]) for name in POOL_PICKS) + 1):
        model = random_weighted_model(rng, name=f"random-{k}")
        if model.name in POOL_PICKS:
            models[model.name] = model
    return models


def _case_id(model_name: str, campaign: str) -> str:
    return f"{campaign}/{model_name}"


def _report_text(model, campaign, trials, seed, probe) -> str:
    obj = run_campaign_model(model, campaign, trials, seed, probe_tightness=probe).to_obj()
    obj.pop("wall_time")
    return json.dumps(obj, indent=2) + "\n"


@contextmanager
def _halved_thresholds():
    """Let the lemma campaign see every threshold halved, witnesses unchanged."""
    def halved(fam):
        delta, witnesses = chain_threshold_witness(fam)
        return delta / 2.0, witnesses
    campaigns.chain_threshold_witness = halved
    try:
        yield
    finally:
        campaigns.chain_threshold_witness = chain_threshold_witness


@contextmanager
def _zero_holds_threshold():
    """Let kernel equality hold only at projector distance 0."""
    spectral.HOLDS_TOL = 0.0
    try:
        yield
    finally:
        spectral.HOLDS_TOL = HOLDS_TOL


@contextmanager
def _zero_numeric_eq_tol():
    """Let a numeric limit agree with its closed form only when equal."""
    tol = campaigns._NUMERIC_EQ_TOL
    campaigns._NUMERIC_EQ_TOL = 0.0
    try:
        yield
    finally:
        campaigns._NUMERIC_EQ_TOL = tol


def _numerics_eq0_text(models) -> str:
    _, name, trials, seed = NUMERICS_EQ0_RUN
    with _zero_numeric_eq_tol():
        return _report_text(models[name], "numerics", trials, seed, False)


def _lemma_text(trials, seed, zero_holds, halve) -> str:
    zero = _zero_holds_threshold() if zero_holds else nullcontext()
    with zero, _halved_thresholds() if halve else nullcontext():
        return _report_text(make_square_model(), "lemma-linearization", trials, seed, False)


def _all_reports() -> dict:
    models = _models()
    reports = {_case_id(name, campaign): _report_text(models[name], campaign, trials, seed, probe)
               for name in MODEL_NAMES for campaign, trials, seed, probe in RUNS}
    reports.update({case: _lemma_text(*run) for case, *run in LEMMA_RUNS})
    reports[NUMERICS_EQ0_RUN[0]] = _numerics_eq0_text(models)
    return reports


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def models() -> dict:
    return _models()


@pytest.mark.parametrize("campaign,trials,seed,probe", RUNS, ids=[r[0] for r in RUNS])
@pytest.mark.parametrize("model_name", MODEL_NAMES)
def test_report_matches_golden(goldens, models, model_name, campaign, trials, seed, probe):
    got = _report_text(models[model_name], campaign, trials, seed, probe)
    assert got == goldens[_case_id(model_name, campaign)]


@pytest.mark.parametrize("case,trials,seed,zero_holds,halve", LEMMA_RUNS,
                         ids=[r[0].split("/")[1] for r in LEMMA_RUNS])
def test_lemma_report_matches_golden(goldens, case, trials, seed, zero_holds, halve):
    assert _lemma_text(trials, seed, zero_holds, halve) == goldens[case]


@pytest.mark.parametrize("model_name", ["unit-square", "random-11"])
def test_numerics_reads_no_scalar_flow_limit(goldens, models, monkeypatch, model_name):
    """The closed-form limits come from one ``limit_support`` call: with
    ``flow_limit`` raising, the numerics report is still the pinned one."""
    def raising(*args):
        raise AssertionError("flow_limit was called")
    monkeypatch.setattr(mdl, "flow_limit", raising)
    run = next(r for r in RUNS if r[0] == "numerics")
    got = _report_text(models[model_name], *run)
    assert got == goldens[_case_id(model_name, "numerics")]


def test_numerics_eq0_report_matches_golden(goldens, models):
    assert _numerics_eq0_text(models) == goldens[NUMERICS_EQ0_RUN[0]]


def test_goldens_pin_numerics_failure_records(goldens):
    """At agreement tolerance 0 the limits of a two-coordinate fixed component
    fail by rounding, and each record carries the trial's beta and point."""
    failures = json.loads(goldens[NUMERICS_EQ0_RUN[0]])["failures"]
    assert failures
    for f in failures:
        assert list(f["inputs"]) == ["beta", "point"]
        assert list(f["actual"]) == ["limit"]


def test_goldens_pin_failure_records(goldens):
    """The probe runs leave failure records in the pinned set."""
    failures = [json.loads(text)["failures"] for key, text in goldens.items()
                if key.startswith("theorem2/")]
    assert any(f and f[-1]["trial_index"] == -1 for f in failures)


def test_goldens_pin_lemma_failure_records(goldens):
    """Failing eps rows and failing tightness probes are both pinned."""
    def failures(case):
        return [f["actual"] for f in json.loads(goldens[case])["failures"]]
    assert not failures("lemma-linearization/unit-square")
    eps_rows = failures("lemma-linearization/holds_tol=0")
    assert eps_rows and all("probe" not in f and len(f["dims"]) == 3 for f in eps_rows)
    halved = failures("lemma-linearization/halved-delta")
    assert any("probe" in f for f in halved) and any("probe" not in f for f in halved)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_all_reports(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
