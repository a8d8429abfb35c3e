"""Campaign runner: accounting, determinism, and reporting."""

import json

import numpy as np
import pytest

from gml import campaigns, cli, numerics, spectral
from gml import model as mdl
from gml import rng as grng
from gml.campaigns import CAMPAIGNS, VerificationReport, describe_model, run_campaign_model
from gml.errors import GmlInputError, StepTooLarge, UnknownCampaign
from gml.model import action_field

from _oracles import ScriptedNormals, theorem1_loop, theorem2_loop
from conftest import make_bipyramid_model


def test_accounting_single_trial(square_model):
    for campaign in CAMPAIGNS:
        rep = run_campaign_model(square_model, campaign, trials=1, seed=0)
        assert rep.trials == 1
        assert rep.passes + len(rep.failures) == 1


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        VerificationReport(campaign="theorem1", model_name="m", trials=3,
                           passes=1, failures=[])


def test_theorem2_thousand_trials_all_pass(square_model):
    rep = run_campaign_model(square_model, "theorem2", trials=1000, seed=42)
    assert rep.passes == 1000
    assert rep.failures == []
    assert rep.thresholds_used["chain_threshold"] == 1.0


def test_theorem2_tightness_probe_records_failure(square_model):
    rep = run_campaign_model(square_model, "theorem2", trials=20, seed=3, probe_tightness=True)
    assert rep.trials == 21  # probe appended as an extra trial
    assert len(rep.failures) == 1
    failure = rep.failures[0]
    assert failure["inputs"]["probe"] is True
    point = np.array(failure["inputs"]["point"], dtype=float)
    s2 = 1 / np.sqrt(2)
    assert np.allclose(np.sort(np.abs(point)), [0, 0, s2, s2], atol=1e-12)
    assert failure["inputs"]["eps"] == [1.0]


def _without_wall_time(report) -> dict:
    obj = report.to_obj()
    del obj["wall_time"]
    return obj


def test_theorem2_matches_the_trial_loop(model_pool):
    """Reports equal the one-trial-at-a-time oracle on every pool model (bases
    of one to four directions), with and without the tightness probes."""
    assert {m.subalgebra_dim for m in model_pool} == {1, 2, 3, 4}
    for model in model_pool:
        for seed in (42, 20260825):
            for probe in (False, True):
                got = run_campaign_model(model, "theorem2", 20, seed, probe_tightness=probe)
                want = theorem2_loop(model, 20, seed, probe)
                assert _without_wall_time(got) == _without_wall_time(want), (model.name, seed)


def test_theorem2_matches_the_trial_loop_past_the_box(model_pool, monkeypatch):
    """With the threshold patched to +infinity and step sizes drawn up to 10,
    trials on two or more directions fail, and the failure records (points and
    step sizes) equal the oracle's."""
    witness = mdl.model_chain_threshold_witness
    monkeypatch.setattr(mdl, "model_chain_threshold_witness",
                        lambda model, alphas: (float("inf"), witness(model, alphas)[1]))
    monkeypatch.setattr(campaigns, "_EPS_CAP", 10.0)
    failed = 0
    for model in model_pool:
        got = run_campaign_model(model, "theorem2", 20, 3)
        assert _without_wall_time(got) == _without_wall_time(theorem2_loop(model, 20, 3, False))
        failed += len(got.failures)
    assert failed >= 100


def test_theorem2_on_one_direction_draws_nothing(monkeypatch):
    """With one basis row nothing is composed: no trial opens a stream or draws
    a point, and every trial passes."""
    def no_draws(*args):
        raise AssertionError("a one-direction theorem2 trial drew")
    monkeypatch.setattr(campaigns, "substream", no_draws)
    monkeypatch.setattr(campaigns, "_random_point", no_draws)
    model = mdl.WeightedModel(name="line", weights=[[0, 0], [1, 0], [0, 1], [1, 2]],
                              subalgebra=[[1, 2]])
    for probe in (False, True):
        rep = run_campaign_model(model, "theorem2", trials=30, seed=5, probe_tightness=probe)
        assert (rep.trials, rep.passes, rep.failures) == (30, 30, [])


def test_theorem1_campaign_passes(square_model, segment_model):
    for model in (square_model, segment_model):
        rep = run_campaign_model(model, "theorem1", trials=300, seed=5)
        assert rep.passes == 300


def test_theorem1_matches_the_trial_loop(model_pool):
    """Reports equal the one-trial-at-a-time oracle on every pool model: one
    substream, one unit_vector and one direction_certificate per trial."""
    for model in model_pool:
        for seed in (42, 20260825):
            got = run_campaign_model(model, "theorem1", 60, seed)
            want = theorem1_loop(model, 60, seed)
            want.wall_time = got.wall_time
            assert got.dumps() == want.dumps(), (model.name, seed)


def test_theorem1_failure_records_match_the_trial_loop(model_pool, monkeypatch):
    """With the certificate patched to fail the draws whose levels sum below
    zero, about half, the failure records (trial indices and directions, bit
    for bit) equal the oracle's."""
    monkeypatch.setattr(mdl, "certify_levels", lambda model, levels: levels.sum(axis=1) > 0)
    failed = 0
    for model in model_pool:
        got = run_campaign_model(model, "theorem1", 40, 3)
        want = theorem1_loop(model, 40, 3)
        want.wall_time = got.wall_time
        assert got.dumps() == want.dumps(), model.name
        failed += len(got.failures)
    assert failed >= 500


def test_theorem1_redraws_a_null_draw_from_the_trial_stream(square_model, monkeypatch):
    """A trial whose first draw has norm <= 1e-12 takes the direction
    unit_vector takes on its stream; a draw just above that is kept.  On the
    square, (1, 0) and (0, 1) tie speeds and fail the certificate."""
    draws = {0: [3.0, 4.0], 1: [1e-13, 0.0, 0.0, 5.0], 2: [3.0, 4.0], 3: [2e-12, 0.0, 0.0, 5.0]}
    reopened = []

    def scripted(seed, k):
        reopened.append(k)
        return ScriptedNormals(draws[k])

    monkeypatch.setattr(campaigns, "trial_streams",
                        lambda seed, n: ((k, ScriptedNormals(draws[k])) for k in range(n)))
    monkeypatch.setattr(campaigns, "substream", scripted)
    rep = run_campaign_model(square_model, "theorem1", trials=4, seed=9)
    assert reopened == [1]
    assert [(f["trial_index"], f["inputs"]["beta"]) for f in rep.failures] == [
        (1, [0.0, 1.0]), (3, [1.0, 0.0])]


def test_lemma_campaign_passes(square_model):
    rep = run_campaign_model(square_model, "lemma-linearization", trials=30, seed=5)
    assert rep.passes == 30


def test_convexity_campaign_passes(square_model, segment_model):
    for model in (square_model, segment_model):
        rep = run_campaign_model(model, "convexity", trials=8, seed=5)
        assert rep.passes == 8


@pytest.mark.parametrize("k", [4, 6, 10, 16])
def test_convexity_passes_on_integer_weights_times_a_power_of_two(k):
    """Flowed for t = 1, the interior samples of weights times 2^k land on a
    facet once t times their speed spread nears 20 (19/20 trials at k = 4,
    0/20 from k = 6); the flow time min(1, 8 / spread) keeps them inside."""
    model = make_bipyramid_model(2.0 ** k)
    assert run_campaign_model(model, "convexity", trials=20, seed=3).passes == 20
    assert run_campaign_model(model, "theorem1", trials=200, seed=3).passes == 200


def test_overflowing_sampled_speeds_are_input_errors():
    """Weights near the float limit overflow some sampled speeds: theorem1,
    certified_fraction and the gapped-direction sampler reject them by the
    speeds-finite rule, with no numpy warning (the suite makes one an error)."""
    model = mdl.WeightedModel("overflow", [[1.5e308, 1.5e308], [0, 0], [1, 0]], np.eye(2))
    with pytest.raises(GmlInputError, match=r"^trial 4: .*a speed is not finite"):
        run_campaign_model(model, "theorem1", trials=20, seed=0)
    # the other two draw blocks of their own, whose rows the user cannot name
    calls = [lambda: run_campaign_model(model, "numerics", trials=5, seed=0),
             lambda: mdl.certified_fraction(model, 100, 0),
             lambda: mdl.gapped_direction(model, grng.substream(0, 0))]
    for call in calls:
        with pytest.raises(GmlInputError, match=r"^the model's weights are too large: "
                                                r".*sampled unit direction is not finite"):
            call()


def test_convexity_opens_no_stream_besides_its_trial_streams(square_model, segment_model,
                                                             monkeypatch):
    """Both checks of a convexity trial draw from the trial's own stream, so
    the campaign opens no substream (one per check if each keyed its own)."""
    calls, real = [], grng.substream

    def counting(*key):
        calls.append(key)
        return real(*key)
    for module in (grng, mdl, campaigns):
        monkeypatch.setattr(module, "substream", counting)
    for model in (square_model, segment_model):
        assert run_campaign_model(model, "convexity", trials=6, seed=9).passes == 6
    assert calls == []


def test_numerics_campaign_passes(square_model):
    rep = run_campaign_model(square_model, "numerics", trials=4, seed=5)
    assert rep.passes == 4


def _kutta3_rows(levels, x, h):
    """Kutta's third-order step, renormalized: a wrong-order stand-in for RK4."""
    k1 = action_field(levels, x)
    k2 = action_field(levels, x + (0.5 * h) * k1)
    k3 = action_field(levels, x - h * k1 + (2.0 * h) * k2)
    y = x + (h / 6.0) * (k1 + 4.0 * k2 + k3)
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _order_gate_runs(model_pool):
    """The numerics campaign on random-1 and random-3, 20 trials each, whose
    speed spreads put h = 0.1 outside RK4's asymptotic range."""
    return [run_campaign_model(model_pool[i], "numerics", trials=20, seed=0)
            for i in (3, 5)]


def test_numerics_order_gate_converges_on_wide_speed_spreads(model_pool):
    assert [m.name for m in (model_pool[3], model_pool[5])] == ["random-1", "random-3"]
    assert [rep.failures for rep in _order_gate_runs(model_pool)] == [[], []]


def test_numerics_order_gate_rejects_a_third_order_step(model_pool, monkeypatch):
    monkeypatch.setattr(numerics, "rk4_rows", _kutta3_rows)
    failures = [f for rep in _order_gate_runs(model_pool) for f in rep.failures]
    assert len(failures) >= 20
    assert all(list(f["actual"]) == ["order_ratio"] for f in failures)
    assert all(f["actual"]["order_ratio"] < 14.0 for f in failures)


def _wide_model(s: int) -> mdl.WeightedModel:
    """A whole-algebra model whose unit directions spread their speeds over
    s to s * sqrt(2)."""
    return mdl.WeightedModel(name=f"wide-{s}",
                             weights=[[0, 0], [s, 0], [0, s], [s, s], [s // 2, 1]],
                             subalgebra=[[1, 0], [0, 1]])


def test_limit_step_follows_the_speed_spread():
    assert (numerics._DT_CAP, numerics._DT_CAP_ORDER, numerics._DT_CAP_MONOTONE) == (0.2, 0.1, 0.05)

    def step(levels, cap=numerics._DT_CAP):
        return numerics.spread_step(levels, cap)
    assert step(np.zeros((0, 4))) == step(np.zeros((3, 4))) == 0.2
    assert step(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])) == 0.2
    assert step(np.array([[0.0, 6.0, -4.0], [0.0, 1.0, 0.0]])) == 0.1
    # never finer than DT_DEFAULT: speeds of 1e200 would otherwise take 1e200 steps to t = 1
    assert step(np.array([[0.0, 1e200, -1e200]])) == numerics.DT_DEFAULT
    # one trial's speeds under the order gate's and the monotonicity run's caps,
    # which bind up to a spread of 10 and of 20
    for cap, binding, spread in ((0.1, 10.0, 16.0), (0.05, 20.0, 32.0)):
        assert step(np.zeros(3), cap) == step(np.array([0.0, 1.0]), cap) == cap
        assert step(np.array([0.0, binding, 1.0]), cap) == cap
        assert step(np.array([-spread / 2, spread / 2]), cap) == 1.0 / spread
        assert step(np.array([0.0, 1e200, -1e200]), cap) == numerics.DT_DEFAULT


def test_numerics_rejects_an_overflowing_speed_spread_without_warning():
    """Speeds of +-1e308 are finite but their spread is not: the step rule
    raises StepTooLarge naming the row and its speeds, with no numpy
    warning on the way (the suite makes one an error)."""
    with pytest.raises(StepTooLarge, match=r"row 1: speeds -1e\+308 to 1e\+308 spread beyond"):
        numerics.spread_step(np.array([[0.0, 1.0], [1e308, -1e308]]), numerics._DT_CAP)
    with pytest.raises(StepTooLarge, match=r"^speeds -1e\+308 to 1e\+308"):
        numerics.spread_step(np.array([1e308, -1e308, 0.0]), numerics._DT_CAP_ORDER)
    # a non-finite speed is the speeds-finite rule's to reject, later
    assert numerics.spread_step(np.array([[np.inf, -1e308]]), numerics._DT_CAP) == numerics.DT_DEFAULT
    model = mdl.WeightedModel("spread", [[1e308], [-1e308], [0], [1]], [[1]])
    with pytest.raises(StepTooLarge, match="spread beyond the float range"):
        run_campaign_model(model, "numerics", trials=5, seed=5)


def test_numerics_reports_hold_at_the_derived_step(model_pool, monkeypatch):
    """The numerics campaign on two of the acceptance pool's widest-spread models
    (speed spreads up to about 8.5) and two wide models, where 1 / spread sets the
    limit search's step, gives the reports it gives with the step held at
    DT_DEFAULT."""
    models = [model_pool[39], model_pool[15], _wide_model(6), _wide_model(10)]
    assert [m.name for m in models[:2]] == ["random-37", "random-13"]
    search, steps = numerics.numeric_limit_rows, []

    def recorded(levels, x, tol, dt):
        steps.append(dt)
        return search(levels, x, tol=tol, dt=dt)

    def reports():
        return [run_campaign_model(m, "numerics", trials=t, seed=5).to_obj() | {"wall_time": 0}
                for m, t in zip(models, (5, 5, 10, 10))]

    monkeypatch.setattr(numerics, "numeric_limit_rows", recorded)
    derived = reports()
    assert all(numerics.DT_DEFAULT < dt < 0.2 for dt in steps)
    monkeypatch.setattr(numerics, "_DT_CAP", numerics.DT_DEFAULT)
    assert reports() == derived
    assert steps[4:] == [numerics.DT_DEFAULT] * 4


@pytest.mark.parametrize("weights", [[[0], [11], [-11], [1]],
                                     [[0, 0], [13, 0], [0, 13], [13, 13], [6, 1]],
                                     [[0], [25], [-25], [1]]],
                         ids=["line-11", "plane-13", "line-25"])
def test_numerics_steps_shrink_on_wide_speed_spreads(weights):
    """Speed spreads of 18 to 22 put the order gate's fixed h = 0.1 outside the
    renormalization guard (StepTooLarge), and a spread of 50 the monotonicity
    run's fixed dt = 0.05; each step follows the spread instead."""
    model = mdl.WeightedModel("wide", weights, np.eye(len(weights[0])))
    rep = run_campaign_model(model, "numerics", trials=20, seed=5)
    assert (rep.passes, rep.failures) == (20, [])


def _replayed_numerics_inputs(model, seed, k):
    rng = grng.substream(seed, k)
    beta = mdl.gapped_direction(model, rng)
    return {"beta": beta.tolist(), "point": campaigns._random_point(rng, model.num_coords).coords.tolist()}


def _failing(monkeypatch, module, name, verdict):
    """Patch ``module.name`` to run as it does, draws included, and return verdict."""
    real = getattr(module, name)

    def patched(*args, **kwargs):
        return verdict(real(*args, **kwargs))
    monkeypatch.setattr(module, name, patched)


@pytest.mark.parametrize("check, key", [("polytope", "moment_polytope_check"),
                                        ("orbit", "orbit_hull_check")])
def test_convexity_failure_records_replay(square_model, monkeypatch, check, key):
    _failing(monkeypatch, mdl, key, lambda ok: False)
    rep = run_campaign_model(square_model, "convexity", trials=3, seed=13)
    assert rep.passes == 0
    for k, f in enumerate(rep.failures):
        assert (f["seed"], f["trial_index"]) == (13, k)
        assert f["expected"] == {"polytope": True, "orbit": True}
        assert f["actual"] == {"polytope": check != "polytope", "orbit": check != "orbit"}
        rng = grng.substream(13, k)
        mdl.moment_polytope_check(square_model, rng)
        assert f["inputs"] == {"point": campaigns._random_point(rng, 4).coords.tolist()}


def test_numerics_errors_name_the_trial_not_the_stack_row(monkeypatch):
    """Trials without a gapped direction join no stack: the first stacked row
    that fails names its own trial, and, since the campaign sets its own
    steps, no dt to reduce.  A trial's own checks name it too."""
    model = mdl.WeightedModel("huge", [[0, 0], [1e150, 0], [0, 1e150], [1e150, 1e150]], np.eye(2))
    real = campaigns._gapped_direction
    calls = []

    def none_twice(model, rng):
        calls.append(None)
        return None if len(calls) <= 2 else real(model, rng)
    monkeypatch.setattr(campaigns, "_gapped_direction", none_twice)
    with pytest.raises(StepTooLarge, match=r"^trial 2: the step is not finite$"):
        run_campaign_model(model, "numerics", trials=5, seed=0)
    calls.clear()

    def fd_fails(model, beta, x, h):
        raise GmlInputError("the finite-difference residual inf is not finite")
    monkeypatch.setattr(numerics, "gradient_fd_check", fd_fails)
    with pytest.raises(GmlInputError, match=r"^trial 2: the finite-difference residual inf"):
        run_campaign_model(mdl.WeightedModel("square", [[0, 0], [1, 0], [0, 1], [1, 1]],
                                             np.eye(2)), "numerics", trials=5, seed=0)


@pytest.mark.parametrize("key", ["monotone", "fd_ratio"])
def test_numerics_failure_records_replay(square_model, monkeypatch, key):
    if key == "monotone":
        _failing(monkeypatch, numerics, "monotonicity_check", lambda ok: False)
    else:  # residuals in proportion to h: a first-order ratio of 2
        monkeypatch.setattr(numerics, "gradient_fd_check", lambda model, beta, x, h: h)
    rep = run_campaign_model(square_model, "numerics", trials=3, seed=5)
    assert rep.passes == 0
    for k, f in enumerate(rep.failures):
        assert (f["seed"], f["trial_index"]) == (5, k)
        assert f["expected"] == {"all_checks": True}
        assert f["actual"] == ({"monotone": False} if key == "monotone" else {"fd_ratio": 2.0})
        assert f["inputs"] == _replayed_numerics_inputs(square_model, 5, k)


def test_unknown_campaign_rejected(square_model):
    with pytest.raises(UnknownCampaign):
        run_campaign_model(square_model, "nonsense", trials=1, seed=0)


@pytest.mark.parametrize("trials, seed", [(1, -1), (1, 2**64), (0, 5), (3, 1.5), (2.5, 3),
                                          (1, np.float64(3.0)), (True, 3), (1, True)])
def test_run_campaign_model_rejects_seeds_outside_64_bits(square_model, trials, seed):
    """Trial streams are keyed by 64 seed bits: seed 2**64 + 5 would replay seed 5.
    A seed or trial count that is not an integer is an input error too."""
    with pytest.raises(GmlInputError):
        run_campaign_model(square_model, "lemma-linearization", trials=trials, seed=seed)


@pytest.mark.parametrize("campaign", ["theorem1", "theorem2", "numerics"])
def test_numpy_integer_seeds_run_as_their_value(square_model, campaign):
    plain = run_campaign_model(square_model, campaign, trials=3, seed=3)
    numpy = run_campaign_model(square_model, campaign, trials=np.int64(3), seed=np.int64(3))
    assert numpy.trials == 3
    assert numpy.to_obj() | {"wall_time": 0} == plain.to_obj() | {"wall_time": 0}


def test_largest_seed_runs(square_model):
    rep = run_campaign_model(square_model, "lemma-linearization", trials=2, seed=2**64 - 1)
    assert rep.passes == 2


def _run_out(model_file, out, trials, seed) -> int:
    """``gml run --campaign theorem2 ... --out out``, in this process."""
    return cli.main(["run", "--campaign", "theorem2", "--model", str(model_file),
                     "--trials", str(trials), "--seed", str(seed), "--out", str(out)])


def test_run_campaign_writes_report(square_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _run_out(square_file, out, 25, 9) == 0
    assert capsys.readouterr().out == f"theorem2: 25/25 passed -> {out}\n"
    obj = json.loads(out.read_text())
    assert obj["passes"] == 25
    assert list(obj) == ["campaign", "model", "trials", "passes", "failures",
                         "thresholds_used", "wall_time"]
    assert obj["model"] == "unit-square"


def test_reports_identical_modulo_wall_time(square_file, tmp_path, capsys):
    outs = []
    for k in range(2):
        out = tmp_path / f"report-{k}.json"
        assert _run_out(square_file, out, 50, 1234) == 0
        obj = json.loads(out.read_text())
        obj.pop("wall_time")
        outs.append(json.dumps(obj, indent=2))
    assert outs[0] == outs[1]


def test_lemma_trial_checks_commutation_once(square_model, monkeypatch):
    """The pair is checked when random_commuting_family builds it; the
    threshold and the kernel rows trust that family."""
    calls = []
    original = spectral.commutator_norm

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(spectral, "commutator_norm", counted)
    trials = 25
    rep = run_campaign_model(square_model, "lemma-linearization", trials=trials, seed=4)
    assert rep.passes == trials
    assert len(calls) == trials


def test_describe_square_model(square_file):
    desc = describe_model(str(square_file))
    assert desc["name"] == "unit-square"
    assert desc["chain_threshold"] == 1.0
    assert len(desc["joint_fixed_components"]) == 4
    assert desc["moment_polytope_vertices"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_describe_segment_model(segment_file):
    desc = describe_model(str(segment_file))
    comps = [tuple(c["indices"]) for c in desc["joint_fixed_components"]]
    assert comps == [(0, 1), (2,)]
    assert desc["moment_polytope_vertices"] == [[0, 0], [1, 0]]
    assert desc["chain_threshold"] == "inf"
