import math
import warnings

import numpy as np
import pytest

from riskctmdp import estimate_dtmdp_value_mc, jsonio
from riskctmdp.model import (ModelError, StationaryPolicy, gen_example,
                             validate_model)
from riskctmdp.reduction import (DtmdpModel, build_equivalent_dtmdp,
                                 make_dtmdp, uniformization_weight)
from riskctmdp.solver import (ValueFunction, bellman_apply,
                              evaluate_policy_iterative,
                              evaluate_policy_linear, optimality_residual)


def test_weight_two_state(two_state):
    assert uniformization_weight(two_state).tolist() == [1.0, 6.0]


def test_weight_all_absorbing_zero_cost():
    model = validate_model({"states": ["a", "b"], "actions": ["u"],
                            "rates": [], "costs": []})
    assert uniformization_weight(model).tolist() == [1.0, 1.0]


def test_weight_pure_birth(pure_birth):
    w = uniformization_weight(pure_birth)
    assert w[2] == 10.0  # 1 + 1 + 8
    assert w.tolist() == [4.0, 6.0, 10.0, 18.0, 1.0]


def test_weight_dominates_costs_and_rates(monotone_corpus):
    for item in monotone_corpus[:25]:
        w = uniformization_weight(item.model)
        assert np.all(w >= 1.0)
        for x in range(item.model.n_states):
            for a in item.model.admissible[x]:
                assert w[x] - item.model.costs[x, a] >= \
                    1.0 + item.model.max_total_rate[x] - 1e-12


def test_reduce_two_state(two_state):
    dtmdp = build_equivalent_dtmdp(two_state)
    work = two_state.state_index("work")
    absorb = two_state.state_index("absorb")
    assert dtmdp.kernel[work, 0, absorb] == pytest.approx(2 / 3, abs=1e-15)
    assert dtmdp.kernel[work, 0, work] == pytest.approx(1 / 3, abs=1e-15)
    assert dtmdp.log_cost[work, 0, 0] == pytest.approx(math.log(6 / 5),
                                                       abs=1e-15)
    # absorbing state: exact identity row at exactly zero cost
    assert dtmdp.kernel[absorb, 0].tolist() == [1.0, 0.0]
    assert dtmdp.log_cost[absorb, 0].tolist() == [0.0, 0.0]


def test_reduce_zero_cost_positive_rate_row():
    model = validate_model({
        "states": ["sink", "busy"], "actions": ["u"],
        "rates": [{"from": "busy", "action": "u", "to": "sink", "rate": 3.0}],
        "costs": [],
    })
    dtmdp = build_equivalent_dtmdp(model)
    assert dtmdp.log_cost[1, 0, 0] == 0.0  # zero cost rate, exactly
    assert dtmdp.kernel[1, 0, 0] == pytest.approx(3 / 4, abs=1e-15)
    assert dtmdp.kernel[1, 0, 1] == pytest.approx(1 / 4, abs=1e-15)


def test_kernel_rows_are_probability_vectors(monotone_corpus):
    for item in monotone_corpus[:50]:
        dtmdp = item.dtmdp
        assert np.all(dtmdp.kernel >= 0.0)
        sums = dtmdp.kernel.sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_log_cost_zero_exactly_when_cost_zero(monotone_corpus):
    for item in monotone_corpus[:50]:
        model, dtmdp = item.model, item.dtmdp
        assert np.all(dtmdp.log_cost >= 0.0)
        for x in range(model.n_states):
            for a in model.admissible[x]:
                if model.costs[x, a] == 0.0:
                    assert dtmdp.log_cost[x, a, 0] == 0.0
                else:
                    assert dtmdp.log_cost[x, a, 0] > 0.0


def test_reduction_is_pure(two_state, pure_birth):
    for model in [two_state, pure_birth, gen_example("random", {"n": 6, "m": 3}, 3)]:
        one = build_equivalent_dtmdp(model)
        two = build_equivalent_dtmdp(model)
        assert one == two
        assert jsonio.dumps(one.to_dict()) == jsonio.dumps(two.to_dict())


def test_reduction_preserves_index_spaces(monotone_corpus):
    item = monotone_corpus[0]
    assert item.dtmdp.states == item.model.states
    assert item.dtmdp.actions == item.model.actions
    assert item.dtmdp.admissible == item.model.admissible


def _per_action_quantities(model, dtmdp, v):
    """Continuous-time residual and one-step values action by action."""
    w = uniformization_weight(model)
    rows = []
    for x in range(model.n_states):
        for a in model.admissible[x]:
            ct = (model.costs[x, a] * v[x] + model.rates[x, a] @ v
                  - model.total_rates[x, a] * v[x])
            step = math.exp(dtmdp.log_cost[x, a, 0]) * (dtmdp.kernel[x, a] @ v)
            rows.append((x, a, ct, (w[x] - model.costs[x, a]) * (step - v[x])))
    return rows


def test_residual_equivalence_identity(monotone_corpus):
    """The continuous-time residual equals (w - c) times the one-step gap,
    action by action, so solving one equation is solving the other."""
    rng = np.random.default_rng(4)
    for item in monotone_corpus[:25]:
        n = item.model.n_states
        for v in [np.ones(n), 1.0 + rng.random(n) * 2.0]:
            for x, a, ct, scaled in _per_action_quantities(item.model,
                                                           item.dtmdp, v):
                assert ct == pytest.approx(scaled, rel=1e-9, abs=1e-9)


def test_solution_transfer_on_solved_values(monotone_corpus):
    """A solved value satisfies both optimality equations; a non-solution
    violates both."""
    for item in monotone_corpus[:25]:
        value = item.report.value
        finite = value.finite_mask
        # one-step fixed-point residual
        stepped = bellman_apply(item.dtmdp, value)[0]
        gap = np.max(np.abs(stepped.values[finite] - value.values[finite]))
        assert gap <= 1e-8
        # continuous-time residual
        res = optimality_residual(item.model, value)
        assert max((abs(r) for r in res.values()), default=0.0) <= 1e-8


def test_non_solution_violates_both(two_state, two_state_dtmdp):
    ones = ValueFunction.constant(2)
    stepped = bellman_apply(two_state_dtmdp, ones)[0]
    assert stepped.values[1] - 1.0 == pytest.approx(0.2, abs=1e-12)
    res = optimality_residual(two_state, ones)
    assert res[1] == pytest.approx(1.0, abs=1e-12)  # c + q - q*1 = 1


def test_make_dtmdp_validation():
    kernel = np.array([[[0.5, 0.5]], [[0.0, 1.0]]])
    costs = np.zeros((2, 1))
    dtmdp = make_dtmdp(["a", "b"], ["u"], kernel, costs)
    assert dtmdp.log_cost.shape == (2, 1, 2)

    with pytest.raises(ModelError, match="sums to"):
        make_dtmdp(["a", "b"], ["u"],
                   np.array([[[0.5, 0.6]], [[0.0, 1.0]]]), costs)
    with pytest.raises(ModelError, match="negative kernel"):
        make_dtmdp(["a", "b"], ["u"],
                   np.array([[[-0.5, 1.5]], [[0.0, 1.0]]]), costs)
    with pytest.raises(ModelError, match=r"NaN kernel entry at \('b', 'u', 'a'\)"):
        make_dtmdp(["a", "b"], ["u"],
                   np.array([[[0.5, 0.5]], [[np.nan, 1.0]]]), costs)
    with pytest.raises(ModelError, match="invalid log-cost"):
        make_dtmdp(["a", "b"], ["u"], kernel, np.full((2, 1), -1.0))
    with pytest.raises(ModelError, match="invalid log-cost"):
        make_dtmdp(["a", "b"], ["u"], kernel, np.full((2, 1), np.inf))
    with pytest.raises(ModelError, match="empty admissible set for state 'b'"):
        make_dtmdp(["a", "b"], ["u"], kernel, costs, admissible=[[0], []])
    with pytest.raises(ModelError, match="index 1 out of range at state 'a'"):
        make_dtmdp(["a", "b"], ["u"], kernel, costs, admissible=[[1], [0]])
    with pytest.raises(ModelError, match="state list is empty"):
        make_dtmdp([], ["u"], np.zeros((0, 1, 0)), np.zeros((0, 1)))
    with pytest.raises(ModelError, match="duplicate state identifier 'a'"):
        make_dtmdp(["a", "a"], ["u"], kernel, costs)
    with pytest.raises(ModelError, match="state identifier 3 is not a string"):
        make_dtmdp(["a", 3], ["u"], kernel, costs)
    with pytest.raises(ModelError, match="duplicate action identifier 'u'"):
        make_dtmdp(["a", "b"], ["u", "u"], np.zeros((2, 2, 2)) + [1.0, 0.0],
                   np.zeros((2, 2)))


def test_row_sum_error_prints_a_plain_float():
    with pytest.raises(ModelError) as err:
        make_dtmdp(["a", "b"], ["u"], np.array([[[0.5, 0.6]], [[0.0, 1.0]]]),
                   np.zeros((2, 1)))
    assert str(err.value) == "kernel row at ('a', 'u') sums to 1.1, not 1"


_GOOD_KERNEL = [[[0.5, 0.5]], [[0.0, 1.0]]]


@pytest.mark.parametrize("kernel, log_cost, message", [
    (np.full((2, 1, 3), 1 / 3), np.zeros((2, 1, 3)),
     "kernel/log_cost shapes do not match state/action sets"),
    (_GOOD_KERNEL, np.zeros((2, 2, 2)),
     "kernel/log_cost shapes do not match state/action sets"),
    ([[[-0.5, 1.5]], [[0.0, 1.0]]], np.zeros((2, 1, 2)),
     "negative kernel entry at ('a', 'u', 'a'): -0.5"),
    ([[[0.5, 0.5]], [[np.nan, 1.0]]], np.zeros((2, 1, 2)),
     "NaN kernel entry at ('b', 'u', 'a'): nan"),
    (_GOOD_KERNEL, [[[0.0, -1.0]], [[0.0, 0.0]]],
     "invalid log-cost at ('a', 'u', 'b'): -1.0"),
    (_GOOD_KERNEL, [[[0.0, 0.0]], [[np.inf, 0.0]]],
     "invalid log-cost at ('b', 'u', 'a'): inf"),
    ([[[0.5, 0.6]], [[0.0, 1.0]]], np.zeros((2, 1, 2)),
     "kernel row at ('a', 'u') sums to 1.1, not 1"),
])
def test_kernel_rules_hold_for_both_constructors(kernel, log_cost, message):
    """A directly built DtmdpModel is checked like one from make_dtmdp."""
    kernel, log_cost = np.array(kernel), np.array(log_cost, dtype=float)
    for build in (DtmdpModel, make_dtmdp):
        with pytest.raises(ModelError) as err:
            build(states=("a", "b"), actions=("u",), admissible=None,
                  kernel=kernel, log_cost=log_cost)
        assert str(err.value) == message


def test_dtmdp_holds_copies_of_the_callers_arrays():
    kernel = np.array(_GOOD_KERNEL)
    log_cost = np.zeros((2, 1, 2))
    dtmdp = DtmdpModel(states=("a", "b"), actions=("u",), admissible=None,
                       kernel=kernel[:], log_cost=log_cost[:])
    kernel[0, 0, 0], log_cost[0, 0, 1] = -1.0, -1.0
    assert dtmdp.kernel[0, 0].tolist() == [0.5, 0.5]
    assert dtmdp.log_cost[0, 0].tolist() == [0.0, 0.0]
    assert kernel.flags.writeable and log_cost.flags.writeable


def test_a_log_cost_varying_with_the_successor_is_refused():
    """A step's cost depends on its state and action only: both
    constructors refuse a log-cost row that differs across successors,
    naming its first differing coordinate, inadmissible pairs included."""
    log_cost = np.array([[[0.0, 0.0], [0.5, 0.5]],
                         [[0.25, 0.125], [0.0, 0.0]]])
    kernel = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
    for admissible in (None, [[0], [1]]):
        for build in (DtmdpModel, make_dtmdp):
            with pytest.raises(ModelError) as err:
                build(states=("a", "b"), actions=("u", "w"),
                      admissible=admissible, kernel=kernel, log_cost=log_cost)
            assert str(err.value) == ("log-cost varies with the successor at "
                                      "('b', 'u', 'b'): 0.125, not 0.25")


def test_a_log_cost_beyond_the_float_range_is_refused():
    """A cost factor exp(log_cost) must be a float: ln of the largest
    float is accepted, 800 is refused by name, and neither warns."""
    kernel = [[[0.5, 0.5]], [[0.0, 1.0]]]
    largest = math.log(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dtmdp = make_dtmdp(["x", "y"], ["u"], kernel, [[largest], [0.0]])
        with pytest.raises(ModelError) as err:
            make_dtmdp(["x", "y"], ["u"], kernel, [[800.0], [0.0]])
    assert np.isfinite(dtmdp.step_weights).all()
    assert str(err.value) == ("log-cost at ('x', 'u', 'x') is 800.0: its "
                              "cost factor exp(800.0) overflows")


@pytest.mark.parametrize("evaluate", [
    evaluate_policy_linear,
    evaluate_policy_iterative,
    lambda dtmdp, policy: estimate_dtmdp_value_mc(dtmdp, policy, 1, 10, 0),
], ids=["linear", "iterative", "monte_carlo"])
def test_out_of_range_action_is_model_error(two_state_dtmdp, evaluate):
    with pytest.raises(ModelError, match="out of range at state 'work'"):
        evaluate(two_state_dtmdp, StationaryPolicy((0, 5)))
