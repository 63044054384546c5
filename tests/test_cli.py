import gc
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskctmdp import build_equivalent_dtmdp, cli, jsonio, validate_model
from riskctmdp.solver import (ValueFunction, check_supersolution,
                              optimality_residual)
from conftest import OVERFLOWING_MODELS


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


@pytest.mark.parametrize("mutation, fragment", [
    ({"rates": [3]}, "rates entry 3 is not a mapping"),
    ({"admissible": {"a": 5}}, "admissible set of state 'a'"),
    ({"states": "ab"}, "state list must be a list of names"),
])
def test_malformed_model_exit_1(tmp_path, capsys, mutation, fragment):
    """Malformed structure is a ModelError, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps({"states": ["a", "b"], "actions": ["u"],
                                 **mutation}))
    status, out, err = _run(capsys, "validate", str(bad))
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


def test_missing_file_exit_1(capsys):
    status, _, err = _run(capsys, "solve", "/nonexistent/model.json")
    assert status == 1
    assert "error:" in err


def test_validate_without_a_model_file_exit_1(capsys):
    status, out, err = _run(capsys, "validate", "")
    assert status == 1 and out == ""
    assert "a model file is required" in err


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


@pytest.mark.parametrize("c", [1.0 - 1e-5, 1.0 - 1e-8])
def test_near_critical_solve_is_exact(tmp_path, capsys, c):
    """two_state q=1: V(work) = q/(q-c), 1e5 and 1e8 sojourn-cost factors."""
    path = tmp_path / "model.json"
    assert cli.main(["gen", "--kind", "two_state", "--params",
                     jsonio.dumps({"q": 1.0, "c": c}), "--out",
                     str(path)]) == 0
    status, out, _ = _run(capsys, "solve", str(path))
    assert status == 0
    report = jsonio.loads(out)
    assert report["converged"] is True and report["infinite_states"] == []
    want = 1.0 / (1.0 - c)
    assert abs(report["values"]["work"] - want) <= 1e-9 * want
    assert report["values"]["absorb"] == 1.0


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


@pytest.mark.parametrize("c", [1.0 - 1e-12, 1.0 - 1e-15])
def test_evaluate_near_critical_is_exact(tmp_path, capsys, c):
    """two_state q=1: the linear evaluator works on the generator form,
    which gives q/(q-c) where the reduced form was 3e-4 off at 1-1e-12 and
    read inf at 1-1e-15."""
    path = tmp_path / "model.json"
    assert cli.main(["gen", "--kind", "two_state", "--params",
                     jsonio.dumps({"q": 1.0, "c": c}), "--out",
                     str(path)]) == 0
    policy = tmp_path / "policy.json"
    policy.write_text(jsonio.dumps({"policy": {"absorb": "a0",
                                               "work": "a0"}}))
    status, out, _ = _run(capsys, "evaluate", str(path), "--policy",
                          str(policy), "--max-iters", "100")
    assert status == 0
    want = 1.0 / (1.0 - c)
    got = jsonio.loads(out)["linear"]["values"]["work"]
    assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("argv, fragment", [
    (["evaluate", "{model}", "--policy", "{policy}", "--tol", "nan"],
     "tol must be positive, got nan"),
], ids=["evaluate-tol"])
def test_nan_tol_and_cap_exit_1(tmp_path, capsys, argv, fragment):
    model_path = _gen_two_state(tmp_path)
    policy = tmp_path / "policy.json"
    policy.write_text(jsonio.dumps({"policy": {"absorb": "a0",
                                               "work": "a0"}}))
    argv = [a.format(model=model_path, policy=policy) for a in argv]
    status, out, err = _run(capsys, *argv)
    assert status == 1 and out == ""
    assert err == f"error: {fragment}\n"


@pytest.mark.parametrize("flag, value", [("--tol", "1e-3"), ("--cap", "2")])
def test_solve_rejects_tol_and_cap(tmp_path, capsys, flag, value):
    """solve is exact policy iteration: tol and cap reached only its warm
    value-iteration sweeps and changed no answer, so it takes neither."""
    model_path = _gen_two_state(tmp_path)
    status, out, err = _run(capsys, "solve", str(model_path), flag, value)
    assert status == 1 and out == ""
    assert f"unrecognized arguments: {flag} {value}" in err


def test_evaluate_rejects_cap(tmp_path, capsys):
    """The iterative evaluator proves states infinite by the ratio test;
    the cap that its old heuristic took is gone."""
    model_path = _gen_two_state(tmp_path)
    policy = tmp_path / "policy.json"
    policy.write_text(jsonio.dumps({"policy": {"absorb": "a0",
                                               "work": "a0"}}))
    status, out, err = _run(capsys, "evaluate", str(model_path), "--policy",
                            str(policy), "--cap", "2")
    assert status == 1 and out == ""
    assert "unrecognized arguments: --cap 2" in err


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


def _golden(name, command, *flags, id=None, report=None):
    """A CLI run on golden/<name>.model.json and its recorded report."""
    return pytest.param([command, str(GOLDEN / f"{name}.model.json"), *flags],
                        report or f"{name}.{command}.json",
                        id=id or f"{name}-{command}")


def _solve_golden(name):
    """The solve report of the policy-iteration route; golden/<name>.solve.json
    holds the value-iteration report (see test_policy_iteration.py)."""
    return _golden(name, "solve", report=f"{name}.solve-pi.json")


def _policy(name):
    return ("--policy", str(GOLDEN / f"{name}.policy.json"))


@pytest.mark.parametrize("args, report", [
    _golden("two_state", "simulate", *_policy("two_state"), "--n", "2000",
            "--seed", "1", id="two_state-2000-1"),
    _golden("birth_death", "simulate", *_policy("birth_death"), "--n", "1000",
            "--seed", "3", id="birth_death-1000-3"),
    *(case for name, horizon in (("random_adm", "1"), ("infinite", "3"))
      for case in (
          _golden(name, "validate"),
          _golden(name, "reduce"),
          _solve_golden(name),
          _golden(name, "evaluate", "--policy",
                  str(GOLDEN / f"{name}.solve.json")),
          _golden(name, "oracle", "--horizon", horizon))),
    _solve_golden("near_critical"),
    _solve_golden("divergent"),
])
def test_report_bytes_unchanged(capsys, args, report):
    """Reports recorded before the code they exercise was rewritten.

    The simulate reports come from the per-path simulator the lockstep
    driver replaced; birth_death truncates a few percent of paths.  The
    others come from the per-model copies of the indexing, the Python
    loops in to_dict and optimality_residual, and the step weights rebuilt
    on each call.  random_adm is random n=8 m=3 with a restricted
    admissible map and some zero costs; infinite has a costly trap, a
    state that reaches it under every action, a divergent pair, and a
    finite state with one action into the trap.
    near_critical is two_state q=1 c=0.999 and divergent is birth_death
    levels=63 birth=3 death=1 cost=1, with 63 states infinite.  The solve
    reports (*.solve-pi.json) were written when solve moved to policy
    iteration.  infinite.evaluate.json, random_adm.evaluate.json and
    birth_death.simulate.json were written when evaluate and simulate
    moved to the continuous-time (generator) form of the linear
    evaluator; the others are older than those changes.  When value
    iteration's cap heuristic gave way to the ratio test, the iterative
    value of infinite.evaluate.json moved by 3e-10, inside tol, and the
    iterations of divergent.solve-pi.json fell from 20 to 3.  When that
    test moved to the lazy iterate v + T v, the iterations of
    divergent.solve.json and divergent.solve-pi.json fell from 3 to 2.
    """
    status, out, _ = _run(capsys, *args)
    assert status == 0
    assert out == (GOLDEN / report).read_text(encoding="utf-8")


def _load_gate():
    """perfbench/gate.py, loaded as test_perfbench_contract.py loads
    spans.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"
    spec = importlib.util.spec_from_file_location("perfbench_gate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_the_benchmark_gate_accepts_reduce_output(capsys):
    """The benchmark's gate rebuilds the reduced model's log-costs per
    transition from DtmdpModel.log_cost, a read-only view of the one
    step_cost per (state, action); random_adm has inadmissible pairs."""
    path = GOLDEN / "random_adm.model.json"
    status, out, _ = _run(capsys, "reduce", str(path))
    model = validate_model(jsonio.loads(path.read_text(encoding="utf-8")))
    assert _load_gate().check_reduce(status, jsonio.loads(out), model) is None
    d = build_equivalent_dtmdp(model)
    assert not d.log_cost.flags.writeable
    assert np.array_equal(d.log_cost, np.broadcast_to(
        d.step_cost[:, :, None], d.kernel.shape))
    assert np.shares_memory(d.log_cost, d.step_cost)


def test_defaults_come_from_the_solver():
    """Unset solver options parse to None, so the solver fills them in;
    --n and --seed have the CLI's own defaults."""
    parse = cli.build_parser().parse_args
    args = parse(["evaluate", "m.json", "--policy", "p.json"])
    assert (args.tol, args.max_iters) == (None, None)
    assert parse(["solve", "m.json"]).max_iters is None
    args = parse(["simulate", "m.json", "--policy", "p.json", "--out",
                  "o.json"])
    assert (args.model, args.policy, args.out, args.n, args.seed) == (
        "m.json", "p.json", "o.json", 100_000, 0)
    assert parse(["gen", "--kind", "two_state"]).seed == 0


def test_run_without_solver_options_uses_the_solver_defaults(
        tmp_path, capsys, monkeypatch):
    from riskctmdp import solver
    model_path = _gen_two_state(tmp_path)
    solve_path = tmp_path / "solve.json"
    assert cli.main(["solve", str(model_path), "--out", str(solve_path)]) == 0
    calls = []

    def spy(name):
        function = getattr(solver, name)

        def recorded(*args, **kwargs):
            calls.append((name, kwargs))
            return function(*args, **kwargs)
        monkeypatch.setattr(solver, name, recorded)
    spy("solve_ctmdp")
    spy("evaluate_policy_iterative")
    status, out, _ = _run(capsys, "solve", str(model_path))
    status2, _, _ = _run(capsys, "evaluate", str(model_path), "--policy",
                         str(solve_path))
    assert (status, status2) == (0, 0)
    assert calls == [("solve_ctmdp", {}), ("evaluate_policy_iterative", {})]
    model = validate_model(jsonio.loads(model_path.read_text()))
    report, _ = solver.solve_ctmdp(model)
    assert out == jsonio.dumps(report.to_dict(model.states, model.actions))


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
                          '{"n": 2, "m": true}')
    assert status == 1 and "'m'=True out of range (int in 1..8)" in err
    status, _, err = _run(capsys, "gen", "--kind", "random", "--params",
                          "not json")
    assert status == 1 and "JSON" in err
    status, _, err = _run(capsys, "gen", "--kind", "random", "--params",
                          "[1]")
    assert status == 1 and "--params must be a JSON object" in err


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


def test_usage_errors_exit_1(tmp_path, capsys):
    model_path = _gen_two_state(tmp_path)
    status, out, err = _run(capsys, "solve", str(model_path), "--bogus")
    assert status == 1 and out == "" and "--bogus" in err
    status, _, err = _run(capsys, "oracle", str(model_path))
    assert status == 1 and "--horizon" in err
    status, out, err = _run(capsys, "gen", "--params", "{}")
    assert status == 1 and out == "" and "--kind" in err
    status, out, err = _run(capsys, "bogus", str(model_path))
    assert status == 1 and out == "" and "invalid choice: 'bogus'" in err
    for dropped in ("--tol", "--max-iters", "--cap"):
        status, _, err = _run(capsys, "oracle", str(model_path),
                              "--horizon", "2", dropped, "1")
        assert status == 1 and dropped in err
    status, out, _ = _run(capsys, "solve", "--help")
    assert status == 0 and "--max-iters" in out


def test_int_beyond_the_float_range_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["a", "b"], "actions": ["u"], "rates": '
                   '[{"from": "a", "action": "u", "to": "b", "rate": 1'
                   + "0" * 400 + "}]}")
    status, out, err = _run(capsys, "validate", str(bad))
    assert status == 1
    assert out == ""
    assert err == ("error: rate at ('a', 'u', 'b') is beyond the float "
                   "range\n")


@pytest.mark.parametrize("raw, message", OVERFLOWING_MODELS,
                         ids=["total-rate", "weight"])
def test_rates_beyond_the_float_range_exit_1(tmp_path, capsys, raw, message):
    bad = tmp_path / "bad.json"
    bad.write_text(jsonio.dumps(raw))
    status, out, err = _run(capsys, "validate", str(bad))
    assert status == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, want", [
    (["gen", "--kind", "two_state", "--params", '{"q": 4, "c": 1}'], 0),
    (["validate", "/nonexistent/model.json"], 1),
    (["solve", "--bogus"], 1),
    (["solve", "--help"], 0),
], ids=["success", "error", "usage", "help"])
def test_main_restores_the_collector_state(capsys, enabled, argv, want):
    """main pauses the cyclic collector while a command runs and leaves it
    as the caller had it, whichever way the command ends."""
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.main(argv) == want
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_divergent_model_writes_no_warnings(tmp_path):
    """Values that overflow to inf are results, not faults: a divergent
    model's solve, evaluate and simulate write nothing to stderr."""
    model = tmp_path / "model.json"
    solved = tmp_path / "solve.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (
            ["gen", "--kind", "birth_death", "--params",
             '{"levels": 63, "birth": 3, "death": 1, "cost": 1}',
             "--out", str(model)],
            ["solve", str(model), "--out", str(solved)],
            ["evaluate", str(model), "--policy", str(solved),
             "--out", str(tmp_path / "evaluate.json")],
            ["simulate", str(model), "--policy", str(solved), "--n", "100",
             "--out", str(tmp_path / "simulate.json")]):
        result = subprocess.run(
            [sys.executable, "-m", "riskctmdp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert (result.returncode, result.stderr) == (0, ""), argv
    assert jsonio.loads(solved.read_text())["infinite_states"]


def test_an_overflowing_residual_reads_inf(tmp_path):
    """At q = 1e300 and c just below it the value of 'work' is about 1e11,
    and c times it is beyond the float range: the residual's terms
    overflow.  Under -W error the solve warns nothing and reports the
    residual as "inf", not computable, where it read 0.0; the residual is
    NaN and check_supersolution fails it."""
    model = tmp_path / "model.json"
    solved = tmp_path / "solve.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for argv in (
            ["gen", "--kind", "two_state", "--params",
             '{"q": 1e300, "c": 9.9999999999e299}', "--out", str(model)],
            ["solve", str(model), "--out", str(solved)]):
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "riskctmdp.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert (result.returncode, result.stderr) == (0, ""), argv
    assert '"sup_residual": "inf"' in solved.read_text()
    ctmdp = validate_model(jsonio.loads(model.read_text()))
    values = jsonio.loads(solved.read_text())["values"]
    value = ValueFunction([values[s] for s in ctmdp.states])
    assert math.isnan(optimality_residual(ctmdp, value)[1])
    assert not check_supersolution(ctmdp, value, value)
