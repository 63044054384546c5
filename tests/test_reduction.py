import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctmdp import estimate_dtmdp_value_mc, jsonio
from riskctmdp.model import (CtmdpModel, ModelError, StationaryPolicy,
                             gen_example, validate_model)
from riskctmdp.reduction import (ROW_SUM_TOL, DtmdpModel,
                                 build_equivalent_dtmdp)
from riskctmdp.solver import (ValueFunction, bellman_apply,
                              evaluate_policy_iterative,
                              evaluate_policy_linear, optimality_residual)


def test_weight_two_state(two_state):
    assert two_state.weight.tolist() == [1.0, 6.0]


def test_weight_all_absorbing_zero_cost():
    model = validate_model({"states": ["a", "b"], "actions": ["u"],
                            "rates": [], "costs": []})
    assert model.weight.tolist() == [1.0, 1.0]


def test_weight_pure_birth(pure_birth):
    w = pure_birth.weight
    assert w[2] == 10.0  # 1 + 1 + 8
    assert w.tolist() == [4.0, 6.0, 10.0, 18.0, 1.0]


def test_weight_dominates_costs_and_rates(monotone_corpus):
    for item in monotone_corpus[:25]:
        model = item.model
        w = model.weight
        assert np.all(w >= 1.0)
        max_total = np.where(model.admissible_mask, model.total_rates,
                             0.0).max(axis=1)
        for x in range(model.n_states):
            for a in model.admissible[x]:
                assert w[x] - model.costs[x, a] >= 1.0 + max_total[x] - 1e-12


# rates and cost rates log-uniform over [1e-300, 1e308], and zeros
_MAGNITUDES = st.one_of(st.just(0.0),
                        st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e))


@st.composite
def _arrays(draw):
    """Rates, cost rates and random non-empty admissible sets of a model
    with up to 4 states and 3 actions."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rates = np.array(draw(st.lists(_MAGNITUDES, min_size=n * m * n,
                                   max_size=n * m * n))).reshape(n, m, n)
    rates[np.arange(n), :, np.arange(n)] = 0.0
    costs = np.array(draw(st.lists(_MAGNITUDES, min_size=n * m,
                                   max_size=n * m))).reshape(n, m)
    admissible = [sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
                  for _ in range(n)]
    return rates, costs, admissible


@settings(max_examples=300, deadline=None)
@given(_arrays())
def test_every_model_that_validates_reduces(arrays):
    """Whenever CtmdpModel accepts a model, the reduction builds its
    discrete-time model without a warning: every admissible cost factor
    is a float of at least 1 and every kernel row is stochastic, also
    where a cost rate dwarfs 1 + max total rate and w - c cancels."""
    rates, costs, admissible = arrays
    n, m = costs.shape
    try:
        model = CtmdpModel(tuple(f"s{x}" for x in range(n)),
                           tuple(f"a{a}" for a in range(m)), admissible,
                           rates, costs)
    except ModelError:  # a total rate or a weight beyond the float range
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dtmdp = build_equivalent_dtmdp(model)
        factor = np.exp(dtmdp.step_cost[model.admissible_mask])
    assert np.isfinite(factor).all() and (factor >= 1.0).all()
    assert (dtmdp.kernel >= 0.0).all()
    assert (np.abs(dtmdp.kernel.sum(axis=2) - 1.0) <= ROW_SUM_TOL).all()


def test_reduce_two_state(two_state):
    dtmdp = build_equivalent_dtmdp(two_state)
    work = two_state.state_index("work")
    absorb = two_state.state_index("absorb")
    assert dtmdp.kernel[work, 0, absorb] == pytest.approx(2 / 3, abs=1e-15)
    assert dtmdp.kernel[work, 0, work] == pytest.approx(1 / 3, abs=1e-15)
    assert dtmdp.step_cost[work, 0] == pytest.approx(math.log(6 / 5),
                                                     abs=1e-15)
    # absorbing state: exact identity row at exactly zero cost
    assert dtmdp.kernel[absorb, 0].tolist() == [1.0, 0.0]
    assert dtmdp.step_cost[absorb, 0] == 0.0


def test_reduce_zero_cost_positive_rate_row():
    model = validate_model({
        "states": ["sink", "busy"], "actions": ["u"],
        "rates": [{"from": "busy", "action": "u", "to": "sink", "rate": 3.0}],
        "costs": [],
    })
    dtmdp = build_equivalent_dtmdp(model)
    assert dtmdp.step_cost[1, 0] == 0.0  # zero cost rate, exactly
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
        assert np.all(dtmdp.step_cost >= 0.0)
        for x in range(model.n_states):
            for a in model.admissible[x]:
                if model.costs[x, a] == 0.0:
                    assert dtmdp.step_cost[x, a] == 0.0
                else:
                    assert dtmdp.step_cost[x, a] > 0.0


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
    w = model.weight
    rows = []
    for x in range(model.n_states):
        for a in model.admissible[x]:
            ct = (model.costs[x, a] * v[x] + model.rates[x, a] @ v
                  - model.total_rates[x, a] * v[x])
            step = math.exp(dtmdp.step_cost[x, a]) * (dtmdp.kernel[x, a] @ v)
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


def test_dtmdp_validation():
    kernel = np.array([[[0.5, 0.5]], [[0.0, 1.0]]])
    costs = np.zeros((2, 1))
    dtmdp = DtmdpModel(["a", "b"], ["u"], None, kernel, costs)
    assert dtmdp.step_cost.shape == (2, 1)

    with pytest.raises(ModelError, match="sums to"):
        DtmdpModel(["a", "b"], ["u"], None,
                   np.array([[[0.5, 0.6]], [[0.0, 1.0]]]), costs)
    with pytest.raises(ModelError, match="negative kernel"):
        DtmdpModel(["a", "b"], ["u"], None,
                   np.array([[[-0.5, 1.5]], [[0.0, 1.0]]]), costs)
    with pytest.raises(ModelError, match=r"NaN kernel entry at \('b', 'u', 'a'\)"):
        DtmdpModel(["a", "b"], ["u"], None,
                   np.array([[[0.5, 0.5]], [[np.nan, 1.0]]]), costs)
    with pytest.raises(ModelError, match="invalid log-cost"):
        DtmdpModel(["a", "b"], ["u"], None, kernel, np.full((2, 1), -1.0))
    with pytest.raises(ModelError, match="invalid log-cost"):
        DtmdpModel(["a", "b"], ["u"], None, kernel, np.full((2, 1), np.inf))
    with pytest.raises(ModelError, match="empty admissible set for state 'b'"):
        DtmdpModel(["a", "b"], ["u"], [[0], []], kernel, costs)
    with pytest.raises(ModelError, match="index 1 out of range at state 'a'"):
        DtmdpModel(["a", "b"], ["u"], [[1], [0]], kernel, costs)
    with pytest.raises(ModelError, match="state list is empty"):
        DtmdpModel([], ["u"], None, np.zeros((0, 1, 0)), np.zeros((0, 1)))
    with pytest.raises(ModelError, match="duplicate state identifier 'a'"):
        DtmdpModel(["a", "a"], ["u"], None, kernel, costs)
    with pytest.raises(ModelError, match="state identifier 3 is not a string"):
        DtmdpModel(["a", 3], ["u"], None, kernel, costs)
    with pytest.raises(ModelError, match="duplicate action identifier 'u'"):
        DtmdpModel(["a", "b"], ["u", "u"], None,
                   np.zeros((2, 2, 2)) + [1.0, 0.0], np.zeros((2, 2)))


def test_row_sum_error_prints_a_plain_float():
    with pytest.raises(ModelError) as err:
        DtmdpModel(["a", "b"], ["u"], None,
                   np.array([[[0.5, 0.6]], [[0.0, 1.0]]]), np.zeros((2, 1)))
    assert str(err.value) == "kernel row at ('a', 'u') sums to 1.1, not 1"


_GOOD_KERNEL = [[[0.5, 0.5]], [[0.0, 1.0]]]


@pytest.mark.parametrize("kernel, log_cost, message", [
    (np.full((2, 1, 3), 1 / 3), np.zeros((2, 1)),
     "kernel/step_cost shapes do not match state/action sets"),
    (_GOOD_KERNEL, np.zeros((2, 2)),
     "kernel/step_cost shapes do not match state/action sets"),
    ([[[-0.5, 1.5]], [[0.0, 1.0]]], np.zeros((2, 1)),
     "negative kernel entry at ('a', 'u', 'a'): -0.5"),
    ([[[0.5, 0.5]], [[np.nan, 1.0]]], np.zeros((2, 1)),
     "NaN kernel entry at ('b', 'u', 'a'): nan"),
    (_GOOD_KERNEL, [[-1.0], [0.0]],
     "invalid log-cost at ('a', 'u'): -1.0"),
    (_GOOD_KERNEL, [[0.0], [np.inf]],
     "invalid log-cost at ('b', 'u'): inf"),
    ([[[0.5, 0.6]], [[0.0, 1.0]]], np.zeros((2, 1)),
     "kernel row at ('a', 'u') sums to 1.1, not 1"),
    ([[[1e308, 1e308]], [[0.0, 1.0]]], np.zeros((2, 1)),
     "kernel row at ('a', 'u') sums to inf, not 1"),
])
def test_kernel_rules(kernel, log_cost, message):
    """Each kernel and log-cost rule is refused by name, without a
    warning: a row whose sum overflows reads inf."""
    kernel, log_cost = np.array(kernel), np.array(log_cost, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError) as err:
            DtmdpModel(("a", "b"), ("u",), None, kernel, log_cost)
    assert str(err.value) == message


def test_dtmdp_holds_copies_of_the_callers_arrays():
    kernel = np.array(_GOOD_KERNEL)
    step_cost = np.zeros((2, 1))
    dtmdp = DtmdpModel(states=("a", "b"), actions=("u",), admissible=None,
                       kernel=kernel[:], step_cost=step_cost[:])
    kernel[0, 0, 0], step_cost[0, 0] = -1.0, -1.0
    assert dtmdp.kernel[0, 0].tolist() == [0.5, 0.5]
    assert dtmdp.step_cost.tolist() == [[0.0], [0.0]]
    assert kernel.flags.writeable and step_cost.flags.writeable


def test_a_log_cost_varying_with_the_successor_is_refused():
    """A step's cost depends on its state and action only, so the
    constructor takes one log-cost per (state, action): an array with a
    successor axis is refused by its shape, inadmissible pairs included."""
    log_cost = np.array([[[0.0, 0.0], [0.5, 0.5]],
                         [[0.25, 0.125], [0.0, 0.0]]])
    kernel = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
    for admissible in (None, [[0], [1]]):
        with pytest.raises(ModelError) as err:
            DtmdpModel(("a", "b"), ("u", "w"), admissible, kernel, log_cost)
        assert str(err.value) == ("kernel/step_cost shapes do not match "
                                  "state/action sets")


def test_an_inadmissible_row_must_sum_to_one():
    """Every kernel row is a probability vector, inadmissible ones too: a
    row whose weights would overflow is refused before they are formed."""
    kernel = [[[0.5, 0.5], [1e300, 0.0]], [[0.0, 1.0], [0.0, 1.0]]]
    with pytest.raises(ModelError) as err:
        DtmdpModel(["x", "y"], ["u", "v"], [[0], [0, 1]], kernel,
                   [[0.0, 700.0], [0.0, 0.0]])
    assert str(err.value) == "kernel row at ('x', 'v') sums to 1e+300, not 1"


def test_a_log_cost_beyond_the_float_range_is_refused():
    """A cost factor exp(log_cost) must be a float: ln of the largest
    float is accepted, 800 is refused by name, and neither warns."""
    kernel = [[[0.5, 0.5]], [[0.0, 1.0]]]
    largest = math.log(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dtmdp = DtmdpModel(["x", "y"], ["u"], None, kernel,
                           [[largest], [0.0]])
        with pytest.raises(ModelError) as err:
            DtmdpModel(["x", "y"], ["u"], None, kernel, [[800.0], [0.0]])
    assert np.isfinite(dtmdp.step_weights).all()
    assert str(err.value) == ("log-cost at ('x', 'u') is 800.0: its "
                              "cost factor exp(800.0) overflows")


@pytest.mark.parametrize("evaluate", [
    evaluate_policy_linear,
    evaluate_policy_iterative,
    lambda dtmdp, policy: estimate_dtmdp_value_mc(dtmdp, policy, 1, 10, 0),
], ids=["linear", "iterative", "monte_carlo"])
def test_out_of_range_action_is_model_error(two_state_dtmdp, evaluate):
    with pytest.raises(ModelError, match="out of range at state 'work'"):
        evaluate(two_state_dtmdp, StationaryPolicy((0, 5)))
