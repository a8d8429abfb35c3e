"""Golden reports: campaign output pinned byte for byte, wall_time stripped.

The goldens in ``tests/data/golden_reports.json`` pin replay of the
theorem1, theorem2 (with tightness probes, so failure records are
pinned too) and convexity campaigns on the two canonical models and two
acceptance-pool models.  Regenerate them only when a report is meant to
change, with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import POOL_SEED, make_segment_model, make_square_model  # noqa: E402
from gml import random_weighted_model  # noqa: E402
from gml.campaigns import run_campaign_model  # noqa: E402
from gml.rng import substream  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_reports.json"
POOL_PICKS = ("random-11", "random-14")
MODEL_NAMES = ("unit-square", "repeated-weight") + POOL_PICKS
# (campaign, trials, seed, probe_tightness)
RUNS = (
    ("theorem1", 120, 11, False),
    ("theorem2", 60, 12, True),
    ("convexity", 3, 13, False),
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


def _all_reports() -> dict:
    models = _models()
    return {_case_id(name, campaign): _report_text(models[name], campaign, trials, seed, probe)
            for name in MODEL_NAMES for campaign, trials, seed, probe in RUNS}


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


def test_goldens_pin_failure_records(goldens):
    """The probe runs leave failure records in the pinned set."""
    failures = [json.loads(text)["failures"] for key, text in goldens.items()
                if key.startswith("theorem2/")]
    assert any(f and f[-1]["trial_index"] == -1 for f in failures)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_all_reports(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
