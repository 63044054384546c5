"""The strategy-enumeration oracle, and an even more literal path-sum
check of the oracle itself on tiny instances."""

import itertools
import math
import warnings

import numpy as np
import pytest

from riskctmdp.model import gen_example
from riskctmdp.reduction import DtmdpModel, build_equivalent_dtmdp
from riskctmdp.solver import (ORACLE_BUDGET, ORACLE_MAX_HORIZON,
                              OracleGuardError, ValueFunction, _masked_apply,
                              bellman_apply, finite_horizon_oracle)


def _path_sum_value(dtmdp, strategy, x0, horizon):
    """E[e^{sum of step costs}] for one strategy by literal path enumeration."""
    n = dtmdp.n_states
    total = 0.0
    for path in itertools.product(range(n), repeat=horizon):
        prob = 1.0
        factor = 1.0
        x = x0
        for step, y in enumerate(path):
            a = strategy[step][x]
            prob *= dtmdp.kernel[x, a, y]
            if prob == 0.0:
                break
            factor *= math.exp(dtmdp.step_cost[x, a])
            x = y
        else:
            total += prob * factor
    return total


def _literal_oracle(dtmdp, horizon):
    n = dtmdp.n_states
    best = np.full(n, np.inf)
    tables = list(itertools.product(*dtmdp.admissible))
    for strategy in itertools.product(tables, repeat=horizon):
        for x0 in range(n):
            best[x0] = min(best[x0],
                           _path_sum_value(dtmdp, strategy, x0, horizon))
    return np.maximum(best, 1.0)


def _reference_oracle(dtmdp, horizon):
    """The enumeration one strategy table at a time: each table's whole
    matrix is built and multiplied on its own."""
    n = dtmdp.n_states
    weights = dtmdp.step_weights
    rows = np.arange(n)
    tables = itertools.product(*dtmdp.admissible)

    suffixes = np.ones((1, n))
    if horizon > 1:
        mats = [weights[rows, np.asarray(t), :] for t in tables]
        for _ in range(horizon - 1):
            suffixes = np.vstack([suffixes @ mat.T for mat in mats])
        tables = itertools.product(*dtmdp.admissible)

    best = np.full(n, np.inf)
    for t in tables:
        mat = weights[rows, np.asarray(t), :]
        best = np.minimum(best, (suffixes @ mat.T).min(axis=0))
    return np.maximum(best, 1.0)


def test_horizon_zero_is_ones(two_state_dtmdp):
    assert finite_horizon_oracle(two_state_dtmdp, 0).values.tolist() == [1, 1]


def test_two_state_horizon_two(two_state_dtmdp):
    oracle = finite_horizon_oracle(two_state_dtmdp, 2)
    assert oracle.values[1] == pytest.approx(1.28, abs=1e-12)


def test_oracle_agrees_with_literal_path_sums():
    for seed, n, m, max_h in [(1, 2, 2, 3), (2, 3, 2, 3), (3, 2, 3, 3),
                              (4, 3, 3, 2)]:
        dtmdp = build_equivalent_dtmdp(gen_example("random", {"n": n, "m": m},
                                                   seed))
        for horizon in range(1, max_h + 1):
            fast = finite_horizon_oracle(dtmdp, horizon)
            slow = _literal_oracle(dtmdp, horizon)
            assert np.allclose(fast.values, slow, rtol=1e-12, atol=1e-12)


def test_oracle_is_bitwise_the_per_table_enumeration():
    # every horizon within budget, on the random models and on the same
    # models with a random nonempty admissible subset at each state
    rng = np.random.default_rng(5)
    for seed, n, m in itertools.product(range(3), range(2, 6), range(1, 4)):
        full = build_equivalent_dtmdp(gen_example("random", {"n": n, "m": m},
                                                  seed))
        admissible = [rng.choice(m, rng.integers(1, m + 1),
                                 replace=False).tolist() for _ in range(n)]
        restricted = DtmdpModel(full.states, full.actions, admissible,
                                full.kernel, full.step_cost)
        for dtmdp in (full, restricted):
            for h in range(1, ORACLE_MAX_HORIZON + 1):
                if m ** (n * h) > ORACLE_BUDGET:
                    break
                assert np.array_equal(finite_horizon_oracle(dtmdp, h).values,
                                      _reference_oracle(dtmdp, h)), (
                    seed, n, m, h, dtmdp.admissible)


def test_oracle_matches_sweeps_on_corpus(oracle_corpus):
    for item in oracle_corpus[:12]:
        sweep = ValueFunction.constant(item.dtmdp.n_states)
        for h in range(1, item.horizon_max + 1):
            sweep = bellman_apply(item.dtmdp, sweep)[0]
            oracle = finite_horizon_oracle(item.dtmdp, h)
            assert np.max(np.abs(sweep.values - oracle.values)) <= 1e-10


def test_guard_rejects_oversized_enumeration():
    dtmdp = build_equivalent_dtmdp(gen_example("random", {"n": 4, "m": 3}, 0))
    with pytest.raises(OracleGuardError):
        finite_horizon_oracle(dtmdp, 4)  # 3^16 tables exceed the budget
    dtmdp_small = build_equivalent_dtmdp(gen_example("random",
                                                     {"n": 2, "m": 2}, 0))
    with pytest.raises(OracleGuardError):
        finite_horizon_oracle(dtmdp_small, 7)  # horizon cap
    with pytest.raises(ValueError):
        finite_horizon_oracle(dtmdp_small, -1)


def test_oracle_respects_admissible_sets():
    raw = {
        "states": ["absorb", "work"],
        "actions": ["a", "b"],
        "admissible": {"work": ["b"], "absorb": ["a", "b"]},
        "rates": [{"from": "work", "action": "b", "to": "absorb", "rate": 2.0}],
        "costs": [{"state": "work", "action": "b", "rate": 1.0}],
    }
    from riskctmdp.model import validate_model
    dtmdp = build_equivalent_dtmdp(validate_model(raw))
    sweep = ValueFunction.constant(2)
    for h in (1, 2, 3):
        sweep = bellman_apply(dtmdp, sweep)[0]
        oracle = finite_horizon_oracle(dtmdp, h)
        assert np.max(np.abs(sweep.values - oracle.values)) <= 1e-12


@pytest.mark.parametrize("horizon", [2, 3])
def test_an_overflowing_cost_meets_a_zero_weight(horizon):
    """'hot' loops on itself at a cost factor of e^700, about 1e304, so
    its two-step cost overflows to inf; 'cold' loops at no cost and puts
    zero weight on 'hot'.  As in the one-step operator, the overflow is
    inf without a warning and 0 * inf is 0, not NaN."""
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 0] = kernel[1, 0, 1] = 1.0
    dtmdp = DtmdpModel(("hot", "cold"), ("a",), None, kernel, [[700.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = finite_horizon_oracle(dtmdp, horizon)
        sweep = ValueFunction.constant(2)
        for _ in range(horizon):
            sweep = bellman_apply(dtmdp, sweep)[0]
    assert exact.values.tolist() == sweep.values.tolist() == [np.inf, 1.0]


def test_masked_apply_on_a_matrix_is_column_by_column():
    """The oracle's products apply the one-step operator's 0 * inf = 0
    rule to a matrix of costs, column by column; small integers keep every
    sum exact."""
    rng = np.random.default_rng(5)
    flat = rng.integers(0, 3, (6, 4)).astype(float)
    v = rng.integers(1, 5, (4, 7)).astype(float)
    v[rng.random((4, 7)) < 0.3] = np.inf
    got = _masked_apply(flat, v)
    for k in range(v.shape[1]):
        assert got[:, k].tolist() == _masked_apply(flat, v[:, k]).tolist()
