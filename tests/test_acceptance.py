"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see them as they complete)."""

import math
import time

import numpy as np

from riskctmdp.extreal import (INF, ExtReal, ext_div, ext_exp, ext_mul,
                               ext_sub_clamped)
from riskctmdp.model import gen_example, validate_model
from riskctmdp.reduction import build_equivalent_dtmdp
from riskctmdp.simulate import estimate_dtmdp_value_mc, estimate_value_mc
from riskctmdp.solver import (ValueFunction, bellman_apply,
                              check_supersolution, evaluate_policy_iterative,
                              evaluate_policy_linear, finite_horizon_oracle,
                              optimality_residual, solve_ctmdp, value_iterate)
from conftest import CORPUS_TOL, only_policy

TWO_STATE_VALUE = 4.0 / 3.0  # E e^{c*T}, T ~ Exp(q): q/(q-c) at q=4, c=1
PURE_BIRTH_VALUE = 1024.0 / 315.0  # prod_{n<4} 2^{n+1}/(2^{n+1}-1)


def _finish(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems)


def test_criterion_01_closed_form_two_state(two_state, two_state_dtmdp):
    problems = []
    start = time.perf_counter()
    report, _ = solve_ctmdp(two_state)
    elapsed = time.perf_counter() - start
    if abs(report.value[1] - TWO_STATE_VALUE) > 1e-9:
        problems.append(f"solve value off by {report.value[1] - TWO_STATE_VALUE}")
    linear = evaluate_policy_linear(two_state_dtmdp, report.policy)
    if abs(linear.values[1] - TWO_STATE_VALUE) > 1e-12:
        problems.append(f"linear value off by {linear.values[1] - TWO_STATE_VALUE}")
    if elapsed >= 0.1:
        problems.append(f"solve took {elapsed:.3f}s")
    _finish(1, "closed-form two-state value", problems)


def test_criterion_02_pure_birth(pure_birth, pure_birth_dtmdp):
    problems = []
    start = time.perf_counter()
    policy = only_policy(pure_birth)
    report, _ = solve_ctmdp(pure_birth)
    linear = evaluate_policy_linear(pure_birth_dtmdp, policy)
    iterative = evaluate_policy_iterative(pure_birth_dtmdp, policy, tol=1e-12)
    for label, got in [("value iteration", report.value[0]),
                       ("linear", linear.values[0]),
                       ("iterative", iterative.values[0])]:
        if abs(got - PURE_BIRTH_VALUE) > 1e-8:
            problems.append(f"{label} off by {got - PURE_BIRTH_VALUE}")
    estimate = estimate_value_mc(pure_birth, policy, 0, 100_000,
                                 master_seed=42)
    if estimate.std_error is None:
        problems.append("std error unavailable")
    elif abs(estimate.mean.value - PURE_BIRTH_VALUE) > 3 * estimate.std_error:
        problems.append(f"MC mean {estimate.mean.value} outside 3 std errors")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s")
    _finish(2, "explosive pure-birth fixture", problems)


def test_criterion_03_monotone_sweeps(monotone_corpus):
    problems = []
    violations = 0
    for item in monotone_corpus:
        v = ValueFunction.constant(item.model.n_states)
        for _ in range(min(item.report.iterations + 10, 250)):
            nxt = bellman_apply(item.dtmdp, v)[0]
            if not np.all(nxt.values >= v.values):
                violations += 1
            v = nxt
    if len(monotone_corpus) != 200:
        problems.append(f"corpus has {len(monotone_corpus)} instances")
    if violations:
        problems.append(f"{violations} monotonicity violations")
    _finish(3, "monotone value iteration on 200 instances", problems)


def test_criterion_04_oracle_equivalence(oracle_corpus):
    problems = []
    start = time.perf_counter()
    worst = 0.0
    for item in oracle_corpus:
        sweep = ValueFunction.constant(item.dtmdp.n_states)
        for h in range(1, item.horizon_max + 1):
            sweep = bellman_apply(item.dtmdp, sweep)[0]
            exact = finite_horizon_oracle(item.dtmdp, h)
            worst = max(worst, float(np.max(np.abs(sweep.values
                                                   - exact.values))))
    elapsed = time.perf_counter() - start
    if len(oracle_corpus) != 50:
        problems.append(f"corpus has {len(oracle_corpus)} instances")
    if worst > 1e-10:
        problems.append(f"max sweep/oracle gap {worst}")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    _finish(4, "finite-horizon oracle equivalence", problems)


def test_criterion_05_optimality_residual(two_state, pure_birth,
                                          monotone_corpus, oracle_corpus):
    problems = []
    worst = 0.0
    fixtures = [two_state, pure_birth,
                gen_example("birth_death", {"levels": 4, "birth": 0.5,
                                            "death": 2.0, "cost": 0.5}, 0)]
    cases = [(model, solve_ctmdp(model)[0]) for model in fixtures]
    cases += [(item.model, item.report) for item in monotone_corpus]
    cases += [(item.model, item.report) for item in oracle_corpus]
    for model, report in cases:
        residuals = optimality_residual(model, report.value)
        sup = max((abs(r) for r in residuals.values()), default=0.0)
        worst = max(worst, sup)
    if worst > 1e-8:
        problems.append(f"sup residual {worst}")
    _finish(5, "optimality-equation residual vs original rates", problems)


def test_criterion_06_policy_verification(monotone_corpus, oracle_corpus):
    problems = []
    allowed = 10 * CORPUS_TOL
    worst = 0.0
    mismatched = 0
    for item in list(monotone_corpus) + list(oracle_corpus):
        value, policy = item.report.value, item.report.policy
        for evaluated in (evaluate_policy_linear(item.dtmdp, policy),
                          evaluate_policy_iterative(item.dtmdp, policy,
                                                    tol=CORPUS_TOL)):
            if not np.array_equal(evaluated.finite_mask, value.finite_mask):
                mismatched += 1
                continue
            finite = value.finite_mask
            if finite.any():
                gap = float(np.max(np.abs(evaluated.values[finite]
                                          - value.values[finite])
                                   / value.values[finite]))
                worst = max(worst, gap)
    if mismatched:
        problems.append(f"{mismatched} infinite-classification mismatches")
    if worst > allowed:
        problems.append(f"relative gap {worst} exceeds {allowed}")
    _finish(6, "extracted-policy verification", problems)


def test_criterion_07_infinite_classification():
    problems = []
    stuck = validate_model({
        "states": ["stuck"], "actions": ["a0"], "rates": [],
        "costs": [{"state": "stuck", "action": "a0", "rate": 2.0}],
    })
    report, _ = solve_ctmdp(stuck)
    if report.infinite_states != frozenset({0}) or not math.isinf(report.value[0]):
        problems.append("pure self-loop at positive cost not classified infinite")

    zero_cost = gen_example("two_state", {"q": 4, "c": 0}, 0)
    zc_report = value_iterate(build_equivalent_dtmdp(zero_cost))
    if zc_report.iterations != 1:
        problems.append(f"zero-cost model took {zc_report.iterations} sweeps")
    if not np.array_equal(zc_report.value.values, np.ones(2)):
        problems.append(f"zero-cost values {zc_report.value.values} not exactly 1")

    idle = validate_model({"states": ["a", "b", "c"], "actions": ["u", "v"],
                           "rates": [], "costs": []})
    idle_report = value_iterate(build_equivalent_dtmdp(idle))
    if idle_report.iterations != 1 or \
            not np.array_equal(idle_report.value.values, np.ones(3)):
        problems.append("all-absorbing zero-cost model not exactly 1 in one sweep")
    _finish(7, "infinite-value classification and zero-cost exactness",
            problems)


def test_criterion_08_supersolution_minimality(monotone_corpus):
    problems = []
    for item in monotone_corpus[:20]:
        model, solved = item.model, item.report.value
        if not check_supersolution(model, solved, solved):
            problems.append(f"seed {item.seed}: solved value rejected")
        scaled = ValueFunction(np.where(np.isinf(solved.values), np.inf,
                                        1.5 * solved.values))
        residuals = optimality_residual(model, scaled)
        nonneg = min(residuals.values(), default=0.0) >= -1e-8
        if check_supersolution(model, scaled, solved) != nonneg:
            problems.append(f"seed {item.seed}: scaled check inconsistent")
        finite = solved.finite_mask & (solved.values > 1.0 + 1e-6)
        if finite.any():
            x = int(np.flatnonzero(finite)[0])
            for eps in (1e-9, 0.5 * (solved.values[x] - 1.0)):
                dipped = solved.values.copy()
                dipped[x] -= eps
                if check_supersolution(model, ValueFunction(dipped), solved):
                    problems.append(
                        f"seed {item.seed}: dip {eps} at {x} accepted")
    _finish(8, "supersolution domination and minimality", problems)


def test_criterion_09_mc_cross_validation(two_state, two_state_dtmdp):
    problems = []
    policy = only_policy(two_state)
    jump_est = estimate_value_mc(two_state, policy, 1, 100_000,
                                 master_seed=12345)
    chain_est = estimate_dtmdp_value_mc(two_state_dtmdp, policy, 1, 100_000,
                                        master_seed=999)
    for label, est in [("jump-process", jump_est), ("chain", chain_est)]:
        if est.std_error is None:
            problems.append(f"{label}: std error unavailable")
        elif abs(est.mean.value - TWO_STATE_VALUE) > 3 * est.std_error:
            problems.append(f"{label}: mean {est.mean.value} outside 3 std errors")
    for workers in (2, 8):
        if estimate_value_mc(two_state, policy, 1, 100_000,
                             master_seed=12345,
                             n_workers=workers) != jump_est:
            problems.append(f"jump-process estimate differs at {workers} workers")
        if estimate_dtmdp_value_mc(two_state_dtmdp, policy, 1, 100_000,
                                   master_seed=999,
                                   n_workers=workers) != chain_est:
            problems.append(f"chain estimate differs at {workers} workers")
    _finish(9, "Monte Carlo cross-validation", problems)


def test_criterion_10_extended_real_algebra():
    problems = []
    table = [
        (ext_mul, 0.0, INF, 0.0), (ext_mul, INF, 0.0, 0.0),
        (ext_mul, 2.0, INF, INF), (ext_mul, INF, INF, INF),
        (ext_mul, 2.0, 3.0, 6.0),
        (ext_div, 0.0, 0.0, 0.0), (ext_div, 1.0, 0.0, INF),
        (ext_div, 0.0, INF, 0.0), (ext_div, 5.0, INF, 0.0),
        (ext_div, INF, 3.0, INF), (ext_div, 6.0, 3.0, 2.0),
        (ext_sub_clamped, INF, INF, INF), (ext_sub_clamped, INF, 7.0, INF),
        (ext_sub_clamped, 5.0, 2.0, 3.0), (ext_sub_clamped, 5.0, 0.0, 5.0),
        (ext_exp, 0.0, None, 1.0), (ext_exp, INF, None, INF),
    ]
    for op, a, b, expected in table:
        got = op(ExtReal(a)) if b is None else op(ExtReal(a), ExtReal(b))
        if got != ExtReal(expected):
            problems.append(f"{op.__name__}({a}, {b}) = {got.value}")

    rng = np.random.default_rng(31337)
    raw = rng.uniform(0.0, 1e6, size=(10_000, 4))
    raw[rng.random((10_000, 4)) < 0.05] = INF
    for a, b, a2, b2 in raw:
        lo_a, hi_a = sorted((a, a2))
        lo_b, hi_b = sorted((b, b2))
        if ext_mul(ExtReal(lo_a), ExtReal(lo_b)) > ext_mul(ExtReal(hi_a),
                                                           ExtReal(hi_b)):
            problems.append(f"mul not monotone at {(a, b, a2, b2)}")
            break
    for a, _, a2, _ in raw[:10_000]:
        lo, hi = sorted((a, a2))
        if ext_exp(ExtReal(lo)) > ext_exp(ExtReal(hi)):
            problems.append(f"exp not monotone at {(a, a2)}")
            break
    _finish(10, "extended-real algebra conventions", problems)
