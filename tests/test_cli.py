"""Command-line interface: queries, campaigns, and exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gml
from gml import SymMat, WeightedModel, delta_threshold
from gml.campaigns import run_campaign_model
from gml.cli import main
from gml.serialization import load_model, save_model

from conftest import BIPYRAMID, make_bipyramid_model, make_segment_model, make_square_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_limit_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "limit", "--model", str(square_file),
                           "--beta", "1,0", "--point", "1,1,1,1")
    assert code == 0
    obj = json.loads(out)
    s2 = 1 / math.sqrt(2)
    assert np.allclose(obj["point"], [0, s2, 0, s2], atol=1e-12)
    assert obj["support"] == [1, 3]


@pytest.mark.parametrize("alpha, beta, delta", [
    ("diag:2,0,1", "diag:1,3,-1", 1.0),
    ("diag:1,0", "diag:0,1", "inf"),
    ("[[2,0],[0,1]]", "[[1,0],[0,-1]]", 1.0),
    ("diag:1,2,0", "diag:3,1,0", 1 / 3),
    ("diag:1,1,0,2", "diag:2,2,0,1", 0.5),
], ids=["diag-syntax", "infinite", "json-matrices", "distinct-levels", "repeated-joint-level"])
def test_delta_query(capsys, alpha, beta, delta):
    # the last pair's repeated joint level (1, 2) takes the refine recursion
    code, out, _ = run_cli(capsys, "delta", "--alpha", alpha, "--beta", beta)
    assert code == 0
    assert json.loads(out) == {"delta": delta}


def test_flow_zero_time_echoes_point(square_file, capsys):
    code, out, _ = run_cli(capsys, "flow", "--model", str(square_file),
                           "--beta", "1,0", "--point", "0.5,0.5,0.5,0.5",
                           "--t", "0")
    assert code == 0
    assert np.allclose(json.loads(out)["point"], [0.5] * 4, atol=1e-15)


def test_composed_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "composed", "--model", str(square_file),
                           "--point", "1,1,1,1", "--alphas", "1,0;0,1")
    assert code == 0
    assert json.loads(out)["support"] == [3]


def test_perturbed_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "perturbed", "--model", str(square_file),
                           "--point", "1,1,1,1", "--eps", "0.5")
    assert code == 0
    assert json.loads(out)["support"] == [3]


def test_stabilizer_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "stabilizer", "--model", str(square_file),
                           "--point", "1,0,0,1")
    assert code == 0
    basis = np.array(json.loads(out)["basis"], dtype=float)
    assert basis.shape == (1, 2)
    assert abs(basis[0] @ np.array([1, 1])) < 1e-12


def test_components_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "components", "--model", str(square_file),
                           "--beta", "1,0")
    assert code == 0
    comps = json.loads(out)["components"]
    assert [c["indices"] for c in comps] == [[1, 3], [0, 2]]
    assert [c["level"] for c in comps] == [1.0, 0.0]


def test_chain_threshold_query(square_file, capsys):
    code, out, _ = run_cli(capsys, "chain-threshold", "--model", str(square_file))
    assert code == 0
    assert json.loads(out)["chain_threshold"] == 1.0


def test_describe_command(square_file, capsys):
    code, out, _ = run_cli(capsys, "describe", str(square_file))
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "unit-square"
    assert obj["moment_polytope_vertices"] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_describe_lists_every_vertex_of_a_huge_hull(tmp_path, capsys):
    # cofactors of these weights overflow unless the hull build rescales them
    path = tmp_path / "huge.json"
    save_model(make_bipyramid_model(1e100), path)
    code, out, _ = run_cli(capsys, "describe", str(path))
    assert code == 0
    vertices = sorted((np.array(BIPYRAMID[:5]) * 1e100).tolist())
    assert json.loads(out)["moment_polytope_vertices"] == vertices


def test_run_writes_report_and_exits_zero(square_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--campaign", "theorem2",
                           "--model", str(square_file), "--trials", "40",
                           "--seed", "4", "--out", str(out_path))
    assert code == 0
    assert "40/40 passed" in out
    assert json.loads(out_path.read_text())["passes"] == 40


def test_run_out_file_is_the_report(square_file, tmp_path, capsys):
    """The file holds run_campaign_model's report text, wall_time apart."""
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--campaign", "theorem2", "--model", str(square_file),
                         "--trials", "30", "--seed", "8", "--probe-tightness",
                         "--out", str(out_path))
    assert code == 1  # the tightness probe fails
    report = run_campaign_model(load_model(square_file), "theorem2", 30, 8,
                                probe_tightness=True)
    wall = re.compile(r'^  "wall_time": .*$', re.M)
    text = out_path.read_text()
    assert len(wall.findall(text)) == 1
    assert wall.sub("", text) == wall.sub("", report.dumps())


def test_run_unwritable_out_exits_two(square_file, tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "--campaign", "theorem2", "--model",
                             str(square_file), "--trials", "2", "--out", str(tmp_path))
    assert_input_error(code, err)
    assert err.startswith(f"error: cannot write report to {tmp_path}: ")
    assert out == ""


@pytest.mark.parametrize("campaign, model, trials, seed", [
    ("theorem1", make_square_model(), 2000, 2**64 - 1),
    ("theorem2", WeightedModel("line", [[0, 0], [1, 0], [0, 1], [1, 2]], [[1, 2]]), 20, 0),
    ("convexity", make_square_model(), 20, 0),
    ("convexity", make_segment_model(), 20, 0),
    ("convexity", make_bipyramid_model(64), 20, 3),
    ("lemma-linearization", make_square_model(), 20, 0),
    ("numerics", make_square_model(), 20, 0),
    ("numerics", WeightedModel("wide", [[0, 0], [10, 0], [0, 10], [10, 10], [5, 1]], np.eye(2)),
     20, 0),
    ("numerics", WeightedModel("line-11", [[0], [11], [-11], [1]], [[1]]), 20, 5),
], ids=["theorem1-largest-seed", "theorem2-one-direction", "convexity-square", "convexity-segment",
        "convexity-bipyramid-times-64", "lemma-square", "numerics-square", "numerics-wide-spread",
        "numerics-line-11"])
def test_run_passes_every_trial(tmp_path, capsys, campaign, model, trials, seed):
    # the largest seed; one basis direction; integer weights whose hull an
    # interior flow once left; speed spreads where a fixed step failed trials
    path, out_path = tmp_path / "model.json", tmp_path / "report.json"
    save_model(model, path)
    code, out, _ = run_cli(capsys, "run", "--campaign", campaign, "--model", str(path),
                           "--trials", str(trials), "--seed", str(seed), "--out", str(out_path))
    assert code == 0
    assert f"{trials}/{trials} passed" in out
    assert json.loads(out_path.read_text())["passes"] == trials


def test_run_without_out_prints_report(square_file, capsys):
    code, out, _ = run_cli(capsys, "run", "--campaign", "theorem1",
                           "--model", str(square_file), "--trials", "5",
                           "--seed", "4")
    assert code == 0
    assert json.loads(out)["passes"] == 5


def test_run_probe_failures_exit_one(square_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "run", "--campaign", "theorem2",
                         "--model", str(square_file), "--trials", "10",
                         "--seed", "4", "--out", str(out_path),
                         "--probe-tightness")
    assert code == 1
    assert len(json.loads(out_path.read_text())["failures"]) >= 1


def test_missing_model_exits_two(capsys):
    code, _, err = run_cli(capsys, "describe", "no-such-file.json")
    assert code == 2
    assert "error" in err


def test_bad_campaign_exits_two(square_file, capsys):
    code, out, err = run_cli(capsys, "run", "--campaign", "bogus", "--model", str(square_file))
    assert_input_error(code, err)
    assert out == "" and "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv, named", [
    (("limit", "--model", "{model}"), "required: --point, --beta"),
    (("frobnicate",), "invalid choice: 'frobnicate'"),
    ((), "required: command"),
    (("run", "--campaign", "theorem1", "--model", "{model}", "--trials", "abc"),
     "invalid int value: 'abc'"),
], ids=["missing-point", "unknown-command", "no-command", "non-integer-trials"])
def test_usage_errors_exit_two_on_one_line(square_file, capsys, argv, named):
    """The parser's errors, its subcommands' too, are one 'error:' line, with no
    usage block."""
    code, out, err = run_cli(capsys, *(a.format(model=square_file) for a in argv))
    assert_input_error(code, err)
    assert out == "" and named in err


@pytest.mark.parametrize("argv", [("--help",), ("run", "--help")])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: gml")


def test_malformed_model_exits_two(malformed_file, capsys):
    code, _, err = run_cli(capsys, "describe", str(malformed_file))
    assert code == 2
    assert "line" in err


# ------------------------------------------------- input errors exit 2, one line


def assert_input_error(code, err):
    """Exit 2 with a single 'error: ...' line and no traceback."""
    assert code == 2
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_run_zero_trials_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "theorem1",
                           "--model", str(square_file), "--trials", "0")
    assert_input_error(code, err)


def test_run_negative_seed_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "theorem1",
                           "--model", str(square_file), "--seed=-1")
    assert_input_error(code, err)


def test_run_seed_beyond_64_bits_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "run", "--campaign", "lemma-linearization",
                           "--model", str(square_file), "--seed", str(2**64))
    assert_input_error(code, err)


@pytest.mark.parametrize("cmd, flag, text", [
    ("limit", "--beta", "1,,0"), ("limit", "--beta", "1,0,"), ("limit", "--point", ",1,1,1,1"),
    ("limit", "--beta", "1 0,0"), ("composed", "--alphas", "1,0;;0,1"),
    ("composed", "--alphas", "1,0;0,1;"),
], ids=["beta-inner", "beta-trailing", "point-leading", "beta-space", "alphas-inner",
        "alphas-trailing"])
def test_empty_vector_fields_exit_two(square_file, capsys, cmd, flag, text):
    """An empty field is an input error, not a dropped entry: "1,,0" would run
    as beta (1, 0).  A space inside a number is one too: "1 0" read as 10."""
    opts = {"--point": "1,1,1,1", **({"--beta": "1,0"} if cmd == "limit" else {}), flag: text}
    code, out, err = run_cli(capsys, cmd, "--model", str(square_file),
                             *[s for item in opts.items() for s in item])
    assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("limit", "--beta", "1,0", "--point", "-1,1,1,1"),
    ("limit", "--point", "1,1,1,1", "--beta", "-1,0"),
    ("flow", "--point", "1,1,1,1", "--t", "1", "--beta", "-.5,-1e-3"),
    ("stabilizer", "--point", "-1,0,0,1"),
    ("composed", "--point", "1,1,1,1", "--alphas", "-1,0;0,1"),
    ("perturbed", "--point", "1,1,1,1", "--eps", "0.5", "--alphas", "-1,0;0,-1"),
    ("perturbed", "--alphas", "1,0;0,1", "--point", "1,1,1,1", "--eps", "-5e-1"),
    ("components", "--beta", "-1,0"),
    ("chain-threshold", "--alphas", "-1,0;0,1"),
], ids=["limit-point", "limit-beta", "flow-beta", "stabilizer-point", "composed-alphas",
        "perturbed-alphas", "perturbed-eps", "components-beta", "chain-threshold-alphas"])
def test_vectors_with_a_leading_minus(square_file, capsys, argv):
    """``--point -1,1,1,1`` is ``--point=-1,1,1,1``, not an unknown option."""
    *head, flag, value = argv
    head = (*head, "--model", str(square_file))
    want = run_cli(capsys, *head, f"{flag}={value}")
    if flag == "--eps":
        assert_input_error(want[0], want[2])
    else:
        assert want[0] == 0
    assert run_cli(capsys, *head, flag, value) == want


def test_blank_eps_is_no_step_size(tmp_path, capsys):
    """A one-row basis takes no step sizes: a blank --eps is the empty vector."""
    path = tmp_path / "line.json"
    save_model(WeightedModel("line", [[0, 0], [1, 0], [0, 1]], [[1, 0]]), path)
    code, out, _ = run_cli(capsys, "perturbed", "--model", str(path), "--point", "1,1,1",
                           "--eps", "")
    assert code == 0
    assert json.loads(out)["support"] == [1]


def test_limit_nan_point_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "limit", "--model", str(square_file),
                           "--beta", "1,0", "--point", "1,nan,1,1")
    assert_input_error(code, err)


def test_limit_zero_point_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "limit", "--model", str(square_file),
                           "--beta", "1,0", "--point", "0,0,0,0")
    assert_input_error(code, err)


def test_flow_infinite_time_exits_two(square_file, capsys):
    code, _, err = run_cli(capsys, "flow", "--model", str(square_file),
                           "--beta", "1,0", "--point", "1,1,1,1", "--t", "inf")
    assert_input_error(code, err)


@pytest.mark.parametrize("point", ["1,1", "1,1,1,1,1,1"])
def test_limit_wrong_length_point_exits_two(square_file, capsys, point):
    code, out, err = run_cli(capsys, "limit", "--model", str(square_file),
                             "--beta", "1,0", "--point", point)
    assert_input_error(code, err)
    assert out == ""
    assert "expected 4" in err


def test_theorem2_without_uniform_box_exits_two(tmp_path, capsys):
    # the pair (0, 1) leads in the second basis slot with an opposing third
    # slot, so no uniform step-size box exists for the stored basis
    model = WeightedModel(name="no-box", weights=[[0, 0, 0], [0, 1, -1], [1, 0, 0]],
                          subalgebra=np.eye(3))
    path = tmp_path / "no-box.json"
    save_model(model, path)
    code, _, err = run_cli(capsys, "run", "--campaign", "theorem2",
                           "--model", str(path), "--trials", "5")
    assert_input_error(code, err)
    assert "uniform step-size box" in err


def test_theorem2_on_overflowing_speeds_exits_two(tmp_path, capsys):
    # one basis row whose speeds 3e308 and -3e308 overflow to infinities
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"name": "overflow", "num_coords": 3, "torus_dim": 2,
                                "weights": [[1e308, 0], [-1e308, 0], [0, 1]],
                                "subalgebra": [[3, 0]]}))
    code, out, err = run_cli(capsys, "run", "--campaign", "theorem2",
                             "--model", str(path), "--trials", "20")
    assert_input_error(code, err)
    assert "not finite" in err
    assert out == ""


def test_theorem1_on_overflowing_sampled_speeds_exits_two(tmp_path, capsys):
    # trial 4's sampled speed overflows: an input error, not a failed trial
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"name": "overflow", "num_coords": 3, "torus_dim": 2,
                                "weights": [[1.5e308, 1.5e308], [0, 0], [1, 0]],
                                "subalgebra": [[1, 0], [0, 1]]}))
    code, out, err = run_cli(capsys, "run", "--campaign", "theorem1", "--model", str(path),
                             "--trials", "5", "--seed", "0")
    assert_input_error(code, err)
    assert "trial 4: " in err and "not finite" in err
    assert out == ""


def test_numerics_on_an_overflowing_speed_spread_exits_two(tmp_path, capsys):
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"name": "spread", "num_coords": 4, "torus_dim": 1,
                                "weights": [[1e308], [-1e308], [0], [1]], "subalgebra": [[1]]}))
    code, out, err = run_cli(capsys, "run", "--campaign", "numerics",
                             "--model", str(path), "--trials", "5")
    assert_input_error(code, err)
    assert "speeds -1e+308 to 1e+308" in err
    assert out == ""


@pytest.mark.parametrize("weights, message", [
    ([[0, 0], [1e150, 0], [0, 1e150], [1e150, 1e150]], "the step is not finite"),
    ([[1e308], [-1e308], [0], [1]],
     "speeds -1e+308 to 1e+308 spread beyond the float range: no step resolves them"),
], ids=["step-not-finite", "spread-overflows"])
def test_numerics_input_errors_name_the_trial(tmp_path, capsys, weights, message):
    """The campaign's errors name the trial to replay, and no dt to reduce:
    no option sets the campaign's steps."""
    path = tmp_path / "huge.json"
    save_model(WeightedModel("huge", weights, np.eye(len(weights[0]))), path)
    code, out, err = run_cli(capsys, "run", "--campaign", "numerics",
                             "--model", str(path), "--trials", "5")
    assert_input_error(code, err)
    assert (out, err) == ("", f"error: trial 0: {message}\n")


def test_chain_threshold_of_weights_near_the_float_limit(tmp_path, capsys):
    """Tail sums past the float range are taken at unit scale: weights near
    1e308 get the threshold of the same weights divided by 1e308."""
    thresholds = []
    for scale in (1e308, 1.0):
        path = tmp_path / "near-limit.json"
        save_model(WeightedModel("near-limit", [[scale] * 3, [0, 0, 0], [0, 0, scale / 1e308]],
                                 np.eye(3)), path)
        code, out, err = run_cli(capsys, "chain-threshold", "--model", str(path))
        assert (code, err) == (0, "")
        thresholds.append(json.loads(out)["chain_threshold"])
    assert thresholds == [0.5, 0.5]


def test_delta_of_a_huge_commuting_pair(capsys):
    code, out, err = run_cli(capsys, "delta", "--alpha", "diag:-1.7e308,1",
                             "--beta", "diag:1.7e308,1")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"delta": 1.0}
    # in process too, where the suite makes a numpy warning an error: the
    # CLI's errstate would hide one
    assert delta_threshold(SymMat.diag([-1.7e308, 1]), SymMat.diag([1.7e308, 1])) == 1.0


@pytest.mark.parametrize("alpha", ["[[1,2],[0,1]]", "[[1,2]]", "diag:1,nan", "[[1e400,0],[0,1]]",
                                   "[[1,0],[0,1]", "diag:1,2,3"],
                         ids=["non-symmetric", "non-square", "non-finite", "overflowing-entry",
                              "truncated", "unequal-dimension"])
def test_delta_bad_matrix_exits_two(capsys, alpha):
    code, out, err = run_cli(capsys, "delta", "--alpha", alpha, "--beta", "diag:1,1")
    assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("chain-threshold", "--alphas", "1,0;0"),
    ("components", "--beta", "nan,0"),
    ("components", "--beta", "inf,0"),
    ("components", "--beta", "-inf,0"),
    ("chain-threshold", "--alphas", "1,inf;0,1"),
    ("chain-threshold", "--alphas", "1,nan;0,1"),
    ("composed", "--point", "1,1,1,1", "--alphas", "1,0"),
    ("limit", "--point", "1,1,1,1", "--beta", "1,0,0"),
    ("limit", "--point", "1", "--beta", "1,0"),
], ids=["ragged-alphas", "nan-beta", "inf-beta", "minus-inf-beta", "inf-alphas", "nan-alphas",
        "one-alpha", "long-beta", "one-coordinate-point"])
def test_bad_numbers_exit_two(square_file, capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--model", str(square_file), *argv[1:])
    assert_input_error(code, err)
    assert out == ""


def test_delta_malformed_matrix_file_exits_two(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text("[[1, 0],\n [0, 1]")
    code, out, err = run_cli(capsys, "delta", "--alpha", f"@{path}", "--beta", "diag:1,1")
    assert_input_error(code, err)
    assert out == ""
    assert "line 2" in err


def test_boolean_matrices_exit_two(tmp_path, capsys):
    """JSON true/false are not matrix entries, in a @file matrix or in a model."""
    matrix = tmp_path / "m.json"
    matrix.write_text("[[true, 0], [0, false]]")
    code, out, err = run_cli(capsys, "delta", "--alpha", f"@{matrix}", "--beta", "diag:1,1")
    assert_input_error(code, err)
    assert out == ""
    model = tmp_path / "flag.json"
    model.write_text(json.dumps({"name": "flag", "num_coords": 2, "torus_dim": 1,
                                 "weights": [[True], [False]], "subalgebra": [[1]]}))
    code, out, err = run_cli(capsys, "describe", str(model))
    assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("describe",),
    ("run", "--campaign", "convexity", "--model"),
    ("limit", "--point", "1,1", "--beta", "1", "--model"),
], ids=["describe", "run", "limit"])
def test_model_file_that_is_not_utf8_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, err)
    assert out == ""


def test_describe_infinite_weight_exits_two(square_file, capsys):
    # JSON readers accept the bare token Infinity as a number
    text = square_file.read_text().replace("1.0", "Infinity", 1)
    assert "Infinity" in text
    square_file.write_text(text)
    code, out, err = run_cli(capsys, "describe", str(square_file))
    assert_input_error(code, err)
    assert out == ""
    assert "must be finite" in err


def _cli_process(*argv, preexec_fn=None):
    """Run ``python -m gml.cli`` as a process, so that stray numpy
    warnings would show on stderr too."""
    src = str(Path(gml.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "gml.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn)


def test_describe_rank_8_within_2_gb_of_address_space(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "rank8.json"
    save_model(WeightedModel("rank-8", np.random.default_rng(8).integers(-3, 4, (16, 8)),
                             np.eye(8)), path)
    limit = 2_000_000 * 1024  # bytes, as ``ulimit -v 2000000``
    out = _cli_process("describe", str(path), preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_AS, (limit, limit)))
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["torus_dim"] == 8


@pytest.mark.parametrize("scale", ["1e200", "1e308"])
def test_delta_of_huge_equal_pair_is_one(scale):
    # alpha = beta has threshold 1; |AB - BA| overflows unscaled, so the
    # pair is checked scaled by powers of two
    out = _cli_process("delta", "--alpha", f"diag:{scale},1", "--beta", f"diag:{scale},1")
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout) == {"delta": 1.0}


def test_delta_huge_noncommuting_pair_exits_two():
    out = _cli_process("delta", "--alpha", "[[1e200,1e199],[1e199,1]]", "--beta", "diag:1e200,1")
    assert_input_error(out.returncode, out.stderr)
    assert out.stdout == ""
    assert "do not commute" in out.stderr


@pytest.mark.parametrize("cmd, extra, named", [
    ("limit", ("--beta", "1e308,1e308"), "speeds"),
    ("flow", ("--beta", "1e308,1e308", "--t", "1"), "speeds"),
    ("flow", ("--beta", "1,1", "--t", "1e308"), "t = 1e+308"),
], ids=["limit-beta", "flow-beta", "flow-time"])
def test_overflowing_speeds_are_named(square_file, capsys, cmd, extra, named):
    # the point is fine: the message names the speeds (and the flow time),
    # not the point
    code, out, err = run_cli(capsys, cmd, "--model", str(square_file), "--point", "1,1,1,1",
                             *extra)
    assert_input_error(code, err)
    assert out == ""
    assert named in err and "not finite" in err and "normalize" not in err


@pytest.mark.parametrize("cmd", ["limit", "components"])
@pytest.mark.parametrize("beta", ["0,1e200,-1e200", "0,1e308,-1e308", "0,1,-1"],
                         ids=["1e200", "1e308", "unit"])
def test_direction_outside_a_proper_subalgebra_exits_two(tmp_path, capsys, cmd, beta):
    """Of any finite size: a huge direction is tested scaled by a power of two,
    where its squares cannot overflow into a tolerance that passes anything."""
    path = tmp_path / "plane.json"
    save_model(WeightedModel("plane", [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [2, 2, 2]],
                             [[1, 0, 0], [0, 2, 2]]), path)
    point = ("--point", "1,1,1,1,1") if cmd == "limit" else ()
    code, out, err = run_cli(capsys, cmd, "--model", str(path), "--beta", beta, *point)
    assert_input_error(code, err)
    assert out == ""
    assert "direction lies outside the subalgebra" in err


@pytest.mark.parametrize("scale", ["1e-200", "1e200", "1e-320", "1e308"])
def test_point_of_extreme_size_is_its_unit_point(square_file, capsys, scale):
    """Homogeneous coordinates whose squares underflow or overflow name the
    point that ``1,1,1,1`` names; ``stabilizer`` takes them too."""
    for cmd, extra in (("limit", ("--beta", "1,1")), ("stabilizer", ())):
        argv = (cmd, "--model", str(square_file), *extra, "--point")
        want = run_cli(capsys, *argv, "1,1,1,1")
        assert want[0] == 0
        assert run_cli(capsys, *argv, ",".join([scale] * 4)) == want


def test_components_overflowing_speed_exits_two(square_file, capsys):
    code, out, err = run_cli(capsys, "components", "--model", str(square_file),
                             "--beta", "1e308,1e308")
    assert_input_error(code, err)
    assert out == ""


# the pair (0, 1) has the speed difference 2e308, which overflows; without
# those two rows the threshold is 0.25
OVERFLOWING_PAIR = {"name": "overflowing-pair", "num_coords": 4, "torus_dim": 2,
                    "weights": [[1e308, 0], [-1e308, 0], [0, 0], [4, -1]],
                    "subalgebra": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("argv", [
    ("chain-threshold", "--model"),
    ("describe",),
    ("run", "--campaign", "theorem2", "--trials", "200", "--seed", "1", "--model"),
], ids=["chain-threshold", "describe", "theorem2"])
def test_overflowing_pair_speeds_exit_two(tmp_path, capsys, argv):
    """Not a threshold of "inf", nor theorem2 failures recorded against it."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(OVERFLOWING_PAIR))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert_input_error(code, err)
    assert out == ""
    assert "pair speeds of coordinates 0 and 1 are not finite" in err


@pytest.mark.parametrize("fields, named", [
    ({"name": 5}, "field 'name' must be a string"),
    ({"subalgebra": [[1, 0, 0], [0, 1, 0]]}, "rows have length 3, expected 2"),
    ({"weights": [0, 0, 1, 0, 0, 1, 1, 1]}, "field 'weights' must be a list of equal-length rows"),
    ({"num_coords": 1, "weights": [[1, 0]]}, "at least two homogeneous coordinates"),
], ids=["numeric-name", "long-subalgebra-rows", "flat-weights", "one-coordinate"])
def test_malformed_model_fields_exit_two(tmp_path, capsys, fields, named):
    obj = {"name": "square", "num_coords": 4, "torus_dim": 2,
           "weights": [[0, 0], [1, 0], [0, 1], [1, 1]], "subalgebra": [[1, 0], [0, 1]], **fields}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "describe", str(path))
    assert_input_error(code, err)
    assert out == ""
    assert named in err
