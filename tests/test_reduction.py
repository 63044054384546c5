import itertools
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

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
import exact


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
    where a cost rate dwarfs the total rate or q - c is a few ulps."""
    rates, costs, admissible = arrays
    n, m = costs.shape
    try:
        model = CtmdpModel(tuple(f"s{x}" for x in range(n)),
                           tuple(f"a{a}" for a in range(m)), admissible,
                           rates, costs)
    except ModelError:  # a total rate, or rate + cost, beyond the floats
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dtmdp = build_equivalent_dtmdp(model)
        factor = np.exp(dtmdp.step_cost[model.admissible_mask])
    assert np.isfinite(factor).all() and (factor >= 1.0).all()
    assert (dtmdp.kernel >= 0.0).all()
    assert (np.abs(dtmdp.kernel.sum(axis=2) - 1.0) <= ROW_SUM_TOL).all()


# small dyadic rates and cost rates, so that Fractions stay short; cost
# rates also at and just around the total rate
_RATES = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
_COST_SHARES = st.sampled_from([0.0, 0.0, 0.125, 0.5, 0.875, 1.0, 1.125, 2.0])


@st.composite
def _models_and_weights(draw):
    """A CtmdpModel with up to 3 states and 2 actions, and a valid weight
    per pair, w >= q and w > c, as Fractions: the reduction's own (q where
    c < q, else None, exact.reduced_policy_value's identity row), the
    paper's w(x), or q or c plus a drawn margin (positive where c >= q)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rates = np.array(draw(st.lists(_RATES, min_size=n * m * n,
                                   max_size=n * m * n))).reshape(n, m, n)
    rates[np.arange(n), :, np.arange(n)] = 0.0
    shares = np.array(draw(st.lists(_COST_SHARES, min_size=n * m,
                                    max_size=n * m))).reshape(n, m)
    # a cost rate in proportion to the total rate, or on its own where
    # the total rate is 0
    total = rates.sum(axis=2)
    costs = shares * np.where(total > 0.0, total, 1.0)
    admissible = [sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
                  for _ in range(n)]
    model = CtmdpModel(tuple(f"s{x}" for x in range(n)),
                       tuple(f"a{a}" for a in range(m)), admissible,
                       rates, costs)
    rule = draw(st.sampled_from(["reduction", "paper", "drawn"]))
    weight = []
    for x in range(n):
        q = {a: sum(map(Fraction, rates[x, a])) for a in admissible[x]}
        c = {a: Fraction(costs[x, a]) for a in admissible[x]}
        paper = 1 + max(c.values()) + max(q.values())
        row = {}
        for a in admissible[x]:
            if rule == "paper":
                row[a] = paper
            elif rule == "reduction":
                row[a] = q[a] if c[a] < q[a] else None
            else:  # w > c needs a positive margin where c >= q
                low = 0 if c[a] < q[a] else 1
                margin = Fraction(draw(st.integers(low, 3)),
                                  draw(st.sampled_from([1, 4])))
                row[a] = max(q[a], c[a]) + margin
        weight.append(row)
    return model, weight


@settings(max_examples=200, deadline=None)
@given(_models_and_weights())
def test_every_valid_weight_keeps_every_policy_value(drawn):
    """The reduction's invariance, in exact arithmetic and without the
    package's reduction: with any weight w >= q, w > c per pair, the
    kernel rates/w + (1 - q/w) I and the step factor w/(w - c) give every
    stationary policy the value of the jump process, infinite states
    included; so does the reduction's rule, the jump chain where c < q
    and an identity row at factor 2 (c > 0) or 1 (c = 0) elsewhere."""
    model, weight = drawn
    for choice in itertools.product(*model.admissible):
        assert exact.reduced_policy_value(model, choice, weight) \
            == exact.policy_value(model, choice)


def _edge_model():
    """One state per kind of pair: 'sink' (q = 0, c = 0), 'burn' (q = 0,
    c = 2), 'slow' (q = 1 < c = 3), 'even' (q = c = 2) and 'fast' (q = 4,
    c = 1), whose second action is inadmissible; every other state's
    second action is admissible with c < q."""
    rates = np.zeros((5, 2, 5))
    costs = np.zeros((5, 2))
    rates[2, 0, 0], costs[2, 0] = 1.0, 3.0
    rates[3, 0, [0, 4]], costs[3, 0] = 1.0, 2.0
    rates[4, 0, [0, 2, 3]], costs[4, 0] = [1.0, 2.0, 1.0], 1.0
    rates[4, 1, 0], costs[4, 1] = 5.0, 7.0  # inadmissible
    rates[:4, 1, 4], costs[:4, 1] = [3.0, 0.5, 1.0, 6.0], [0.0, 0.25, 0.5, 2.0]
    costs[1, 0] = 2.0
    return CtmdpModel(("sink", "burn", "slow", "even", "fast"), ("u", "v"),
                      [[0, 1], [0, 1], [0, 1], [0, 1], [0]], rates, costs)


def test_pairs_without_a_jump_below_their_cost_are_identity_rows():
    """Pairs with q = 0 (at c = 0 and at c > 0) and pairs with c >= q get
    an identity row: at the step factor exactly 2 where the pair is
    admissible with c > 0, at exactly 1 where q = c = 0 and where the pair
    is inadmissible."""
    model = _edge_model()
    dtmdp = build_equivalent_dtmdp(model)
    eye = np.eye(model.n_states)
    for x, a, factor in ((0, 0, 1.0), (1, 0, 2.0), (2, 0, 2.0), (3, 0, 2.0),
                         (4, 1, 1.0)):
        assert dtmdp.kernel[x, a].tolist() == eye[x].tolist()
        assert math.exp(dtmdp.step_cost[x, a]) == factor
        assert dtmdp.step_weights[x, a].tolist() == (factor * eye[x]).tolist()
    assert dtmdp.step_cost[1, 0] == math.log(2.0)
    assert dtmdp.step_cost[0, 0] == dtmdp.step_cost[4, 1] == 0.0


def test_pairs_with_a_jump_below_their_cost_are_the_jump_chain():
    """Pairs with c < q take w = q: no self-loop, rates/q elsewhere, rows
    that sum to 1 within ROW_SUM_TOL, and the step cost
    log1p(c/(q - c)) = ln(q/(q - c)), the log of the sojourn factor."""
    model = _edge_model()
    dtmdp = build_equivalent_dtmdp(model)
    pairs = [(4, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    for x, a in pairs:
        q, c = model.total_rates[x, a], model.costs[x, a]
        assert c < q
        assert dtmdp.kernel[x, a, x] == 0.0
        assert dtmdp.kernel[x, a].tolist() == (model.rates[x, a] / q).tolist()
        assert abs(dtmdp.kernel[x, a].sum() - 1.0) <= ROW_SUM_TOL
        assert dtmdp.step_cost[x, a] == math.log1p(c / (q - c))
    assert dtmdp.kernel[4, 0].tolist() == [0.25, 0.0, 0.5, 0.25, 0.0]
    assert dtmdp.step_cost[4, 0] == pytest.approx(math.log(4 / 3), rel=1e-15)
    assert dtmdp.step_cost[0, 1] == 0.0


def test_jump_chain_rows_have_no_self_loop(monotone_corpus):
    for item in monotone_corpus[:50]:
        model, dtmdp = item.model, item.dtmdp
        jump = model.admissible_mask & (model.costs < model.total_rates)
        x, a = np.nonzero(jump)
        assert (dtmdp.kernel[x, a, x] == 0.0).all()
        assert (np.abs(dtmdp.kernel[x, a].sum(axis=1) - 1.0)
                <= ROW_SUM_TOL).all()


@pytest.mark.parametrize("c", [1e-10, 1e-5, 0.5, 1.0 - 1e-10])
def test_the_step_cost_keeps_every_digit(c):
    """At q = 1 the step cost ln(1/(1 - c)) is within 2 ulps of its value
    to 40 digits, also where c is small: log(q/(q - c)) would lose about
    8e-8 of it at c = 1e-10."""
    dtmdp = build_equivalent_dtmdp(gen_example("two_state", {"q": 1, "c": c},
                                               0))
    with localcontext() as ctx:
        ctx.prec = 40
        want = -(1 - Decimal(c)).ln()
    got = dtmdp.step_cost[1, 0]
    assert abs(Decimal(got) - want) <= 2 * Decimal(math.ulp(got))


def test_reduce_two_state(two_state):
    """work (q = 4 > c = 1) takes the weight q: it jumps to absorb with
    probability 1 at the sojourn factor q/(q - c) = 4/3."""
    dtmdp = build_equivalent_dtmdp(two_state)
    work = two_state.state_index("work")
    absorb = two_state.state_index("absorb")
    assert dtmdp.kernel[work, 0, absorb] == 1.0
    assert dtmdp.kernel[work, 0, work] == 0.0
    assert dtmdp.step_cost[work, 0] == pytest.approx(math.log(4 / 3),
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
    assert dtmdp.kernel[1, 0].tolist() == [1.0, 0.0]  # w = q = 3


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


def test_residual_equivalence_identity(monotone_corpus):
    """At a jump pair (c < q) and at a pair with q = c = 0 the
    continuous-time residual equals (q - c) times the one-step gap, action
    by action, so solving one equation is solving the other.  At every
    other admissible pair both are positive, whatever v >= 1: neither
    equation has a finite solution there."""
    rng = np.random.default_rng(4)
    models = [(item.model, item.dtmdp) for item in monotone_corpus[:25]]
    edge = _edge_model()
    models.append((edge, build_equivalent_dtmdp(edge)))
    pairs = {"scaled": 0, "positive": 0}
    for model, dtmdp in models:
        n = model.n_states
        for v in [np.ones(n), 1.0 + rng.random(n) * 2.0]:
            for x in range(n):
                for a in model.admissible[x]:
                    q, c = model.total_rates[x, a], model.costs[x, a]
                    ct = c * v[x] + model.rates[x, a] @ v - q * v[x]
                    gap = (math.exp(dtmdp.step_cost[x, a])
                           * (dtmdp.kernel[x, a] @ v) - v[x])
                    if c < q or q == c == 0.0:
                        pairs["scaled"] += 1
                        assert ct == pytest.approx((q - c) * gap, rel=1e-9,
                                                   abs=1e-9)
                    else:
                        pairs["positive"] += 1
                        assert ct > 0.0 and gap > 0.0, (x, a, ct, gap)
    assert pairs["scaled"] and pairs["positive"]


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
    assert stepped.values[1] - 1.0 == pytest.approx(1 / 3, abs=1e-12)
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
