import math
from pathlib import Path

import pytest

from riskctmdp import cli, jsonio, solver


def _run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _gen_two_state(tmp_path):
    path = tmp_path / "model.json"
    assert cli.main(["gen", "--kind", "two_state", "--params",
                     '{"q": 4, "c": 1}', "--out", str(path)]) == 0
    return path


def test_gen_validate_round_trip(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, out, err = _run(capsys, "validate", str(model_path))
    assert status == 0 and err == ""
    doc = jsonio.loads(out)
    assert doc["states"] == ["absorb", "work"]
    # normalized output is byte-identical across reruns
    status2, out2, _ = _run(capsys, "validate", str(model_path))
    assert out2 == out


def test_validate_reports_coordinates_and_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps({
        "states": ["a", "b"], "actions": ["u"],
        "rates": [{"from": "a", "action": "u", "to": "b", "rate": -3.0}],
        "costs": [],
    }))
    status, out, err = _run(capsys, "validate", str(bad))
    assert status == 1
    assert out == ""
    assert "negative rate" in err and "'a'" in err


def test_missing_file_exit_1(capsys):
    status, _, err = _run(capsys, "solve", "/nonexistent/model.json")
    assert status == 1
    assert "error:" in err


def test_solve_report(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, out, _ = _run(capsys, "solve", str(model_path))
    assert status == 0
    report = jsonio.loads(out)
    assert abs(report["values"]["work"] - 4.0 / 3.0) <= 1e-9
    assert report["values"]["absorb"] == 1.0
    assert report["policy"] == {"absorb": "a0", "work": "a0"}
    assert report["sup_residual"] <= 1e-8
    assert report["converged"] is True
    assert report["infinite_states"] == []
    # byte-identical rerun
    _, out2, _ = _run(capsys, "solve", str(model_path))
    assert out2 == out


def test_solve_non_convergence_exit_2(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, out, _ = _run(capsys, "solve", str(model_path),
                          "--max-iters", "2")
    assert status == 2
    assert jsonio.loads(out)["converged"] is False


def test_solve_reports_infinite_states(tmp_path, capsys):
    path = tmp_path / "stuck.json"
    path.write_text(jsonio.dumps({
        "states": ["stuck"], "actions": ["a0"], "rates": [],
        "costs": [{"state": "stuck", "action": "a0", "rate": 1.0}],
    }))
    status, out, _ = _run(capsys, "solve", str(path))
    assert status == 0
    report = jsonio.loads(out)
    assert report["values"]["stuck"] == "inf"
    assert report["infinite_states"] == ["stuck"]


def test_reduce_emits_kernel_and_log_cost(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, out, _ = _run(capsys, "reduce", str(model_path))
    assert status == 0
    doc = jsonio.loads(out)
    entries = {(e["from"], e["to"]): e["prob"] for e in doc["kernel"]}
    assert entries[("work", "absorb")] == pytest.approx(2 / 3, abs=1e-15)
    assert entries[("work", "work")] == pytest.approx(1 / 3, abs=1e-15)
    assert entries[("absorb", "absorb")] == 1.0
    (cost_entry,) = doc["log_cost"]
    assert cost_entry["state"] == "work"
    assert cost_entry["value"] == pytest.approx(math.log(6 / 5), abs=1e-15)


def test_evaluate_accepts_solve_report_as_policy(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    solve_path = tmp_path / "solve.json"
    assert cli.main(["solve", str(model_path), "--out", str(solve_path)]) == 0
    status, out, _ = _run(capsys, "evaluate", str(model_path),
                          "--policy", str(solve_path))
    assert status == 0
    report = jsonio.loads(out)
    assert abs(report["linear"]["values"]["work"] - 4.0 / 3.0) <= 1e-12
    assert report["max_abs_diff_finite"] <= 1e-8
    assert report["same_infinite_classification"] is True
    # end to end: evaluating the emitted policy reproduces the solve values
    solved = jsonio.loads(solve_path.read_text())["values"]
    for method in ("linear", "iterative"):
        for state, value in report[method]["values"].items():
            assert abs(value - solved[state]) <= 10 * 1e-10 * solved[state]


def test_evaluate_requires_policy(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, _, err = _run(capsys, "evaluate", str(model_path))
    assert status == 1
    assert "--policy" in err


def test_simulate_report(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(jsonio.dumps(
        {"policy": {"absorb": "a0", "work": "a0"}}))
    args = ["simulate", str(model_path), "--policy", str(policy_path),
            "--n", "4000", "--seed", "5"]
    status, out, _ = _run(capsys, *args)
    assert status == 0
    report = jsonio.loads(out)
    work = report["estimates"]["work"]
    assert abs(work["mean"] - 4.0 / 3.0) <= 4 * work["std_error"]
    assert report["estimates"]["absorb"]["mean"] == 1.0
    assert report["abs_deviation"]["work"] <= 4 * work["std_error"]
    # reruns are byte-identical
    status2, out2, _ = _run(capsys, *args)
    assert out2 == out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, n, seed", [("two_state", 2000, 1),
                                           ("birth_death", 1000, 3)])
def test_simulate_report_bytes_unchanged(capsys, name, n, seed):
    """Reports recorded from the per-path simulator before the lockstep
    driver replaced it; birth_death truncates a few percent of paths."""
    status, out, _ = _run(capsys, "simulate",
                          str(GOLDEN / f"{name}.model.json"), "--policy",
                          str(GOLDEN / f"{name}.policy.json"), "--n", str(n),
                          "--seed", str(seed))
    assert status == 0
    assert out == (GOLDEN / f"{name}.simulate.json").read_text(
        encoding="utf-8")


def test_defaults_come_from_the_solver():
    args = cli.build_parser().parse_args(["solve", "m.json"])
    config = cli.config_from_args(args)
    assert (config.tol, config.max_iters, config.cap) == (
        solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITERS, solver.DEFAULT_CAP)
    config = cli.config_from_args(cli.build_parser().parse_args(
        ["simulate", "m.json", "--policy", "p.json", "--out", "o.json"]))
    assert (config.model_path, config.policy_path, config.output_path,
            config.n_trajectories, config.seed) == (
        "m.json", "p.json", "o.json", 100_000, 0)


def test_oracle_exit_codes(tmp_path, capsys, monkeypatch):
    model_path = _gen_two_state(tmp_path)
    status, out, _ = _run(capsys, "oracle", str(model_path), "--horizon", "4")
    assert status == 0
    assert jsonio.loads(out)["max_discrepancy"] <= 1e-8

    status, _, err = _run(capsys, "oracle", str(model_path), "--horizon", "9")
    assert status == 1 and "horizon" in err

    monkeypatch.setattr(cli, "ORACLE_MATCH_TOL", -1.0)
    status, _, _ = _run(capsys, "oracle", str(model_path), "--horizon", "2")
    assert status == 3


def test_gen_rejects_bad_params(capsys):
    status, _, err = _run(capsys, "gen", "--kind", "random", "--params",
                          '{"n": 1, "m": 2}')
    assert status == 1 and "out of range" in err
    status, _, err = _run(capsys, "gen", "--kind", "random", "--params",
                          "not json")
    assert status == 1 and "JSON" in err


def test_gen_random_deterministic(tmp_path, capsys):
    args = ["gen", "--kind", "random", "--params", '{"n": 4, "m": 2}',
            "--seed", "9"]
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2


def test_float_formatting_loses_nothing():
    value = 4.0 / 3.0
    text = jsonio.dumps({"v": value})
    assert jsonio.loads(text)["v"] == value
    assert jsonio.loads(jsonio.dumps({"v": float("inf")}))["v"] == "inf"
