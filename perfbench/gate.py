"""Correctness gate: each CLI output against an independent reference.

Every check takes the command's exit status and its parsed report (None if
there is none) and returns None when the output is right, or a one-line
failure message.  A failure is *declared* when the program itself reports
it (a solve that exits 2 with "converged": false); any other failure is a
wrong answer.  Both count towards fail_ratio; only wrong answers make a run
incorrect.
"""

from __future__ import annotations

import numpy as np

from riskctmdp import (build_equivalent_dtmdp, evaluate_policy_linear,
                       parse_policy, validate_model)
from riskctmdp.cli import EXIT_NOT_CONVERGED, EXIT_OK

# Relative tolerance of solved values against a reference.  Value
# iteration's stopping rule bounds the change per sweep, not the error; at
# c = 0.999 the error is ~2e-7.
VALUE_RTOL = 1e-6
# Simulate means may stray this many standard errors from the exact value.
MC_SIGMAS = 5.0


def is_declared(status: int, report) -> bool:
    return (status == EXIT_NOT_CONVERGED and isinstance(report, dict)
            and report.get("converged") is False)


def _status(status: int, report):
    if status != EXIT_OK:
        converged = report.get("converged") if isinstance(report, dict) else None
        return f"exit status {status} (converged={converged})"
    if not isinstance(report, dict):
        return "no JSON report"
    return None


def _as_float(v) -> float:
    return float("inf") if v == "inf" else float(v)


def _close(got: float, want: float) -> bool:
    if np.isinf(want) or np.isinf(got):
        return got == want
    return abs(got - want) <= VALUE_RTOL * abs(want)


def check_closed_form(status: int, report, q: float, c: float):
    """two_state solve against V(work) = q/(q-c), V(absorb) = 1."""
    err = _status(status, report)
    if err:
        return err
    want = {"work": q / (q - c), "absorb": 1.0}
    for state, value in want.items():
        got = _as_float(report["values"][state])
        if not _close(got, value):
            return f"V({state}) = {got!r}, closed form {value!r}"
    if report["infinite_states"] or report["converged"] is not True:
        return "closed-form fixture reported infinite states or no convergence"
    return None


def check_solve(status: int, report, model):
    """Solve values against linear evaluation of the reported policy."""
    err = _status(status, report)
    if err:
        return err
    policy = parse_policy(model, report)
    ref = evaluate_policy_linear(build_equivalent_dtmdp(model), policy)
    ref_inf = [model.states[x] for x in np.flatnonzero(~ref.finite_mask)]
    if report["infinite_states"] != ref_inf:
        return (f"infinite states {report['infinite_states'][:5]}... differ "
                f"from linear evaluation {ref_inf[:5]}...")
    for x, state in enumerate(model.states):
        got = _as_float(report["values"][state])
        if not _close(got, float(ref.values[x])):
            return f"V({state}) = {got!r}, linear evaluation {ref.values[x]!r}"
    return None


def check_validate(status: int, report, model):
    """The normalized model must re-validate to the generated model."""
    err = _status(status, report)
    if err:
        return err
    if validate_model(report) != model:
        return "validate output does not re-validate to the input model"
    return None


def check_reduce(status: int, report, model):
    """The emitted discrete-time model must match build_equivalent_dtmdp
    entry for entry (17 significant digits round-trip doubles exactly)."""
    err = _status(status, report)
    if err:
        return err
    want = build_equivalent_dtmdp(model)
    if (report["states"] != list(want.states)
            or report["actions"] != list(want.actions)):
        return "reduce output has other states or actions"
    sidx = {s: i for i, s in enumerate(want.states)}
    aidx = {a: i for i, a in enumerate(want.actions)}
    kernel = np.zeros_like(want.kernel)
    for e in report["kernel"]:
        kernel[sidx[e["from"]], aidx[e["action"]], sidx[e["to"]]] = e["prob"]
    if len(report["kernel"]) != np.count_nonzero(want.kernel > 0):
        return "reduce output lists a different number of kernel entries"
    if not np.array_equal(kernel, want.kernel):
        return "reduce kernel differs from build_equivalent_dtmdp"
    log_cost = np.zeros_like(want.log_cost)
    for e in report["log_cost"]:
        x, a = sidx[e["state"]], aidx[e["action"]]
        if "to" in e:
            log_cost[x, a, sidx[e["to"]]] = e["value"]
        else:
            log_cost[x, a, :] = e["value"]
    if not np.array_equal(log_cost, want.log_cost):
        return "reduce log-costs differ from build_equivalent_dtmdp"
    return None


def check_evaluate(status: int, report):
    """The two evaluators must agree on the infinite set and finite values."""
    err = _status(status, report)
    if err:
        return err
    if report["same_infinite_classification"] is not True:
        return "evaluators disagree on which states are infinite"
    finite = [_as_float(v) for v in report["linear"]["values"].values()
              if v != "inf"]
    limit = VALUE_RTOL * max([1.0] + finite)
    if not report["max_abs_diff_finite"] <= limit:
        return (f"evaluators differ by {report['max_abs_diff_finite']!r} "
                f"> {limit!r}")
    return None


def check_oracle(status: int, report):
    """The CLI compares sweeps with the oracle itself; it must exit 0."""
    return _status(status, report)


def check_simulate(status: int, report, n: int, seed: int):
    """Means within MC_SIGMAS standard errors of the evaluated values
    wherever a standard error is given."""
    err = _status(status, report)
    if err:
        return err
    if report["n"] != n or report["seed"] != seed:
        return "simulate report echoes other n or seed"
    for state, est in report["estimates"].items():
        if est["std_error"] is None:
            continue
        mean = _as_float(est["mean"])
        value = _as_float(report["evaluated_values"][state])
        if not abs(mean - value) <= MC_SIGMAS * est["std_error"]:
            return (f"state {state}: mean {mean!r} is more than {MC_SIGMAS} "
                    f"standard errors ({est['std_error']!r}) from {value!r}")
    return None
