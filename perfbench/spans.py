"""Span recording around the package's public functions, for traced runs.

`Tracer.install()` replaces each traced function with a wrapper on its
module (and on every riskctmdp module that imported it by name) and on its
class for methods; `uninstall()` puts the originals back.  Nothing under
the package changes, and the wrappers exist only in the benchmark process.

A span records its name, start, end, parent span and operation id, plus the
counts read at that boundary.  Sweeps are counted as they happen, not read
from the report: the solver's fixed-point loop gets a counting wrapper
around its sweep function, so a traced run can check the report's
`iterations` against an independent count.  Spans stay in memory until
the run writes them out.  A span's self time is its duration minus the
time its direct child spans cover (calls are nested and single-threaded,
so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import riskctmdp.jsonio
import riskctmdp.model
import riskctmdp.reduction
import riskctmdp.simulate
import riskctmdp.solver
from riskctmdp import (StationaryPolicy, estimate_value_mc, sample_trajectory,
                       trajectory_stream, validate_model)

LAYERS = ("cli", "jsonio", "model", "reduction", "solver", "simulate")
STREAM_PATHS = 20_000    # paths per stream_us estimate
JUMP_SAMPLE_PATHS = 100  # paths replayed per estimate for jumps_per_traj


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


def _infinite_states(args, kwargs, result):
    return {"infinite_states": len(result.infinite_states)}


def _trajectories(args, kwargs, result):
    n = result.n_trajectories
    return {"trajectories": n,
            "truncated": round(result.truncated_fraction * n)}


# (span name, owner, attribute, counts read from (args, kwargs, result))
TARGETS = (
    ("jsonio.loads", riskctmdp.jsonio, "loads", _bytes_in),
    ("jsonio.dumps", riskctmdp.jsonio, "dumps", _bytes_out),
    ("model.validate_model", riskctmdp.model, "validate_model", None),
    ("model.parse_policy", riskctmdp.model, "parse_policy", None),
    ("model.to_dict", riskctmdp.model.CtmdpModel, "to_dict", None),
    ("reduction.build_equivalent_dtmdp", riskctmdp.reduction,
     "build_equivalent_dtmdp", None),
    ("reduction.to_dict", riskctmdp.reduction.DtmdpModel, "to_dict", None),
    ("solver.solve_ctmdp", riskctmdp.solver, "solve_ctmdp", None),
    ("solver.value_iterate", riskctmdp.solver, "value_iterate",
     _infinite_states),
    ("solver.bellman_apply", riskctmdp.solver, "bellman_apply", None),
    ("solver.optimality_residual", riskctmdp.solver, "optimality_residual",
     None),
    ("solver.report_to_dict", riskctmdp.solver.SolveReport, "to_dict", None),
    ("solver.evaluate_policy_linear", riskctmdp.solver,
     "evaluate_policy_linear", None),
    ("solver.evaluate_policy_iterative", riskctmdp.solver,
     "evaluate_policy_iterative", None),
    ("solver.finite_horizon_oracle", riskctmdp.solver,
     "finite_horizon_oracle", None),
    ("simulate.estimate_value_mc", riskctmdp.simulate, "estimate_value_mc",
     _trajectories),
)


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.mc_calls: list = []  # bound arguments of estimate_value_mc
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        for name, owner, attr, counts in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, counts)
            if name == "simulate.estimate_value_mc":
                wrapper = self._keep_mc_args(wrapper, original)
            homes = [owner] if inspect.isclass(owner) else [
                mod for key, mod in sys.modules.items()
                if key.split(".")[0] == "riskctmdp"
                and getattr(mod, attr, None) is original]
            for home in homes:
                self._undo.append((home, attr, original))
                setattr(home, attr, wrapper)
        original = riskctmdp.solver._iterate
        self._undo.append((riskctmdp.solver, "_iterate", original))
        riskctmdp.solver._iterate = self._count_sweeps(original)

    def _count_sweeps(self, iterate):
        """Wrap the solver's fixed-point loop so that each call of its
        `sweep` argument adds one to the "sweeps" count of the span that
        called the loop."""
        @functools.wraps(iterate)
        def counted(sweep, *args, **kwargs):
            calls = 0

            def counting(v):
                nonlocal calls
                calls += 1
                return sweep(v)
            try:
                return iterate(counting, *args, **kwargs)
            finally:
                if self._stack:
                    counts = self.spans[self._stack[-1]].counts
                    counts["sweeps"] = counts.get("sweeps", 0) + calls
        return counted

    def _keep_mc_args(self, wrapper, original):
        signature = inspect.signature(original)

        @functools.wraps(original)
        def keep(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.mc_calls.append(dict(bound.arguments))
            return wrapper(*args, **kwargs)
        return keep

    def uninstall(self) -> None:
        for home, attr, original in reversed(self._undo):
            setattr(home, attr, original)
        self._undo.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]


def write_spans(tracers: list, path) -> None:
    """One JSON line per span, with its self time."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span, own in zip(tracer.spans, tracer.self_times()):
                handle.write(json.dumps(dict(
                    name=span.name, start=span.start, end=span.end,
                    parent=span.parent, op=span.op, self=own,
                    counts=span.counts)) + "\n")


def stream_us(master_seed: int, max_jumps: int) -> float:
    """Per-path cost of estimate_value_mc when no path moves, in
    microseconds: a one-state model absorbs every path before its first
    jump, so what remains is each path's stream set-up, its 2*max_jumps
    draws and the estimator's per-path bookkeeping."""
    model = validate_model({"states": ["s"], "actions": ["a"]})
    policy = StationaryPolicy((0,))
    start = time.perf_counter()
    estimate_value_mc(model, policy, 0, STREAM_PATHS, master_seed, max_jumps)
    return (time.perf_counter() - start) / STREAM_PATHS * 1e6


def jumps_per_trajectory(mc_calls: list) -> tuple:
    """Mean recorded jumps per path, replaying the first JUMP_SAMPLE_PATHS
    streams of each estimate with sample_trajectory.  Returns (mean, sample
    size)."""
    jumps = paths = 0
    for call in mc_calls:
        for i in range(min(JUMP_SAMPLE_PATHS, call["n"])):
            path = sample_trajectory(call["model"], call["policy"], call["x0"],
                                     trajectory_stream(call["master_seed"], i),
                                     call["max_jumps"])
            jumps += len(path.jumps)
            paths += 1
    return (jumps / paths if paths else 0.0), paths


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals (inclusive seconds), counts and self times."""
    spans = tracer.spans
    own = tracer.self_times()

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    sweeps_at_solution = [s.duration for s in spans
                          if s.name == "solver.bellman_apply"
                          and s.parent >= 0
                          and spans[s.parent].name == "solver.value_iterate"]
    trajectories = count("simulate.estimate_value_mc", "trajectories")
    estimate_s = total("simulate.estimate_value_mc")
    out = {
        "solver.value_iterate_s": total("solver.value_iterate"),
        "solver.sweeps": count("solver.value_iterate", "sweeps"),
        "solver.sweep_s": statistics.median(sweeps_at_solution)
        if sweeps_at_solution else 0.0,
        "solver.infinite_states": count("solver.value_iterate",
                                        "infinite_states"),
        "solver.residual_s": total("solver.optimality_residual"),
        "solver.report_to_dict_s": total("solver.report_to_dict"),
        "solver.linear_eval_s": total("solver.evaluate_policy_linear"),
        "solver.iterative_eval_s": total("solver.evaluate_policy_iterative"),
        "solver.oracle_s": total("solver.finite_horizon_oracle"),
        "jsonio.loads_s": total("jsonio.loads"),
        "jsonio.dumps_s": total("jsonio.dumps"),
        "jsonio.bytes_in": count("jsonio.loads", "bytes"),
        "jsonio.bytes_out": count("jsonio.dumps", "bytes"),
        "model.validate_s": total("model.validate_model"),
        "model.to_dict_s": total("model.to_dict"),
        "model.parse_policy_s": total("model.parse_policy"),
        "reduction.build_s": total("reduction.build_equivalent_dtmdp"),
        "reduction.to_dict_s": total("reduction.to_dict"),
        "simulate.estimate_s": estimate_s,
        "simulate.trajectories": trajectories,
        "simulate.traj_us": estimate_s / trajectories * 1e6
        if trajectories else 0.0,
        "simulate.truncated_fraction": count("simulate.estimate_value_mc",
                                             "truncated") / trajectories
        if trajectories else 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, own) if s.name.split(".")[0] == layer)
    return out
