"""The benchmark's traced run (perfbench/spans.py) replaces package
functions and methods by owner and attribute name, and wraps the solver's
fixed-point loop.  These checks keep those names where it looks for them,
so that moving a method into a base class cannot break a traced run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import riskctmdp.solver

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
