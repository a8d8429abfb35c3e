"""Tests for the benchmark's tracer.

Run from the repository root with ``python3 -m pytest benchmarks``.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracer as trc  # noqa: E402
from gml import campaigns  # noqa: E402
from workloads import square_model, strip_wall_time  # noqa: E402


def _all_sites():
    """Current value of every binding site of every traced target."""
    sites = {}
    for _, module_name, attr_path in trc.TARGETS:
        for owner, attr in trc.binding_sites(module_name, attr_path):
            sites[(id(owner), attr)] = (owner, attr, vars(owner).get(attr))
    return sites


def test_install_then_restore_leaves_every_attribute_identical():
    before = _all_sites()
    module_dicts = {mod.__name__: dict(vars(mod)) for mod in trc._gml_modules()}
    tracer = trc.Tracer().install()
    try:
        for owner, attr, original in before.values():
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, original in before.values():
        assert vars(owner).get(attr) is original, (owner, attr)
    for mod in trc._gml_modules():
        now = vars(mod)
        old = module_dicts[mod.__name__]
        assert now.keys() == old.keys()
        assert all(now[k] is old[k] for k in old), mod.__name__


def test_functions_imported_by_name_are_wrapped_where_imported():
    import gml.campaigns
    import gml.model
    import gml.numerics
    import gml.rng

    original = gml.rng.substream
    with trc.Tracer():
        assert gml.model.substream is gml.rng.substream is gml.campaigns.substream
        assert gml.rng.substream is not original
        assert gml.numerics.fixed_components is gml.model.fixed_components
    assert gml.campaigns.substream is original


@pytest.mark.parametrize("campaign,trials", [
    ("theorem1", 40), ("theorem2", 40), ("lemma-linearization", 3),
    ("convexity", 2), ("numerics", 1)])
def test_traced_reports_match_untraced_ones(campaign, trials):
    model = square_model()
    plain = campaigns.run_campaign_model(model, campaign, trials, 11).dumps()
    tracer = trc.Tracer()
    with tracer:
        traced = campaigns.run_campaign_model(model, campaign, trials, 11).dumps()
    assert len(tracer.spans()) > 0
    assert strip_wall_time(traced) == strip_wall_time(plain)


def test_theorem2_op_records_one_substream_per_trial():
    trials = 1000
    tracer = trc.Tracer()
    with tracer:
        campaigns.run_campaign_model(square_model(), "theorem2", trials, 3)
    sp = tracer.spans()
    assert sp.calls("rng.substream") == trials
    assert sp.calls("campaigns.run") == 1
    # 1 random point, 2 composed-limit restrictions and 1 perturbed-limit
    # restriction per trial; the threshold validates the basis once more
    assert sp.calls("model.ProjPoint") == 4 * trials
    assert sp.calls("model.validate_direction") == 7 * trials + 2
    assert sp.calls("model.require_basis") == 2 * trials + 1


def _spans(rows):
    """Spans from (name, parent, start, end) rows."""
    labels = sorted({r[0] for r in rows})
    return trc.Spans(labels, [labels.index(r[0]) for r in rows], [r[1] for r in rows],
                     [r[2] for r in rows], [r[3] for r in rows], [trc.OK] * len(rows))


def test_self_time_subtracts_direct_children_only():
    sp = _spans([
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),
        ("c", 0, 5.0, 9.0),
        ("d", 2, 6.0, 7.0),
        ("b", 2, 7.5, 8.0),
        ("a", -1, 20.0, 21.0),
    ])
    assert np.allclose(sp.self_times(), [3.0, 3.0, 2.5, 1.0, 0.5, 1.0])
    assert sp.self_s("a") == pytest.approx(4.0)
    assert sp.self_s("b") == pytest.approx(3.5)
    assert sp.calls("b") == 2
    assert sp.calls_under("b", "c") == 1
    assert sp.calls_under("d", "a") == 1
    assert sp.calls_under("d", "a", direct=True) == 0
    # self times add up to the root spans' wall time
    assert sp.self_times().sum() == pytest.approx(11.0)


def test_tracer_records_nesting_with_a_counting_clock():
    ticks = iter(range(100))
    tracer = trc.Tracer(targets=(), clock=lambda: float(next(ticks)))

    def inner():
        return None

    def outer():
        tracer.span("inner", inner)
        tracer.span("inner", inner)
        return 1

    assert tracer.span("outer", outer) == 1
    sp = tracer.spans()
    # outer opens at 0; inner spans are 1-2 and 3-4; outer closes at 5
    assert sp.calls("inner") == 2 and sp.calls("outer") == 1
    assert sp.self_s("outer") == pytest.approx(3.0)
    assert sp.self_s("inner") == pytest.approx(2.0)
    assert sp.status_count("inner", trc.RETURNED_NONE) == 2


def test_concat_keeps_parents_within_each_part(tmp_path):
    a = _spans([("x", -1, 0.0, 2.0), ("y", 0, 0.5, 1.0)])
    b = _spans([("y", -1, 0.0, 1.0), ("z", 0, 0.2, 0.4)])
    a.save(tmp_path / "a.npz")
    joined = trc.Spans.concat([trc.Spans.load(tmp_path / "a.npz"), b])
    assert len(joined) == 4
    assert list(joined.parents) == [-1, 0, -1, 2]
    assert joined.calls("y") == 2
    assert joined.calls_under("z", "y") == 1
    assert joined.self_s("x") == pytest.approx(1.5)
