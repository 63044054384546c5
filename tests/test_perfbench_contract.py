"""The benchmark's traced run (perfbench/spans.py) replaces package
functions and methods by owner and attribute name, and wraps the solver's
fixed-point loop.  These checks keep those names where it looks for them,
so that moving a method into a base class cannot break a traced run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import riskctmdp.solver
from riskctmdp import cli, gen_example, jsonio, solve_ctmdp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
GOLDEN = Path(__file__).parent / "golden"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_trace_targets_are_own_attributes():
    for name, owner, attr, _ in _load_spans().TARGETS:
        assert attr in owner.__dict__, f"{name}: {attr} not defined on {owner}"


def test_fixed_point_loop_takes_sweep_first():
    params = list(inspect.signature(riskctmdp.solver._iterate).parameters)
    assert params[0] == "sweep"


def test_fixed_point_loop_is_a_plain_function():
    """The tracer's wrapper carries `__wrapped__`, and the benchmark's
    self-test checks that none is left after uninstalling it."""
    assert not hasattr(riskctmdp.solver._iterate, "__wrapped__")


@pytest.mark.parametrize("kind, params", [
    ("two_state", {"q": 1, "c": 0.99}),
    ("birth_death", {"levels": 63, "birth": 3, "death": 1, "cost": 1}),
], ids=["two_state", "birth_death-divergent"])
def test_counted_sweeps_equal_iterations(monkeypatch, kind, params):
    """The traced run counts calls of the sweep that solver._iterate
    receives and requires the count to equal the report's iterations."""
    calls = 0
    iterate = riskctmdp.solver._iterate

    def counted(sweep, *args, **kwargs):
        def counting(v):
            nonlocal calls
            calls += 1
            return sweep(v)
        return iterate(counting, *args, **kwargs)
    monkeypatch.setattr(riskctmdp.solver, "_iterate", counted)
    report, _ = solve_ctmdp(gen_example(kind, params, 0))
    assert calls == report.iterations > 1


@pytest.mark.parametrize("command, to_dict", [
    ("validate", "model.to_dict"),
    ("reduce", "reduction.to_dict"),
], ids=["validate", "reduce"])
def test_tracer_sees_each_io_layer(tmp_path, capsys, command, to_dict):
    """The traced run's per-layer figures for parse, validate, to_dict and
    emit come from these spans; each command must make exactly one."""
    path = tmp_path / "model.json"
    path.write_text(jsonio.dumps(gen_example(
        "random", {"n": 8, "m": 2}, 3).to_dict()), encoding="utf-8")
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main([command, str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span.name for span in tracer.spans]
    for name in ("jsonio.loads", "model.validate_model", to_dict,
                 "jsonio.dumps"):
        assert names.count(name) == 1, (name, names)


def _traced_main(argv):
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
    return status, tracer


def test_tracer_sees_each_solver_and_simulate_layer(tmp_path, capsys):
    """The commands import the solver and the simulator when they run, and
    must still call them through the names the tracer wraps: the traced run
    reads these spans, the counted sweeps and the recorded Monte Carlo
    calls."""
    model = str(GOLDEN / "two_state.model.json")
    policy = str(GOLDEN / "two_state.policy.json")
    out = tmp_path / "report.json"

    def names(tracer):
        return [span.name for span in tracer.spans]

    status, tracer = _traced_main(["solve", model, "--out", str(out)])
    assert status == 0
    assert names(tracer).count("solver.solve_ctmdp") == 1
    sweeps = sum(span.counts.get("sweeps", 0) for span in tracer.spans
                 if span.name == "solver.value_iterate")
    assert sweeps == jsonio.loads(out.read_text())["iterations"] > 0

    status, tracer = _traced_main(["evaluate", model, "--policy", policy,
                                   "--out", str(out)])
    assert status == 0
    for name in ("solver.evaluate_policy_linear",
                 "solver.evaluate_policy_iterative"):
        assert names(tracer).count(name) == 1, (name, names(tracer))

    status, tracer = _traced_main(["simulate", model, "--policy", policy,
                                   "--n", "100", "--out", str(out)])
    assert status == 0
    n_states = len(jsonio.loads(out.read_text())["estimates"])
    assert names(tracer).count("simulate.estimate_value_mc") == n_states
    assert [call["x0"] for call in tracer.mc_calls] == list(range(n_states))
    assert {"master_seed", "max_jumps"} <= set(tracer.mc_calls[0])

    status, tracer = _traced_main(["oracle", model, "--horizon", "3",
                                   "--out", str(out)])
    assert status == 0
    assert names(tracer).count("solver.finite_horizon_oracle") == 3
    capsys.readouterr()
