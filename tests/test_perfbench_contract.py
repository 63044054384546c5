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
