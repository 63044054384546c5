import dataclasses
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskctmdp import jsonio, solver
from riskctmdp.model import (ModelError, StationaryPolicy, gen_example,
                             validate_model)
from riskctmdp.reduction import DtmdpModel, build_equivalent_dtmdp
from riskctmdp.solver import (SolverError, ValueFunction, bellman_apply,
                              check_supersolution, evaluate_policy_iterative,
                              evaluate_policy_linear, optimality_residual,
                              policy_iterate, solve_ctmdp, value_iterate)
import exact
from conftest import only_policy, periodic_class

TWO_STATE_VALUE = 4.0 / 3.0  # holding-time transform of Exp(4) at cost rate 1
PURE_BIRTH_VALUE = 1024.0 / 315.0  # product of per-level transforms
CORPUS_TOL = 1e-12


def _stuck_model(cost_rate=2.0):
    return validate_model({
        "states": ["stuck"], "actions": ["a0"], "rates": [],
        "costs": [{"state": "stuck", "action": "a0", "rate": cost_rate}],
    })


def _two_action_two_state():
    """Action 'a' (rate 4, cost 1, value 4/3) beats 'b' (rate 2, cost 1,
    value 2)."""
    return validate_model({
        "states": ["absorb", "work"],
        "actions": ["a", "b"],
        "rates": [
            {"from": "work", "action": "a", "to": "absorb", "rate": 4.0},
            {"from": "work", "action": "b", "to": "absorb", "rate": 2.0},
        ],
        "costs": [
            {"state": "work", "action": "a", "rate": 1.0},
            {"state": "work", "action": "b", "rate": 1.0},
        ],
    })


class TestBellmanApply:
    def test_two_state_first_sweeps(self, two_state_dtmdp):
        ones = ValueFunction.constant(2)
        first, _ = bellman_apply(two_state_dtmdp, ones)
        assert first.values[0] == 1.0
        assert first.values[1] == pytest.approx(1.2, abs=1e-14)
        second, _ = bellman_apply(two_state_dtmdp, first)
        assert second.values[1] == pytest.approx(1.28, abs=1e-14)

    def test_zero_cost_preserves_ones(self):
        model = gen_example("birth_death", {"levels": 3, "birth": 1.0,
                                            "death": 2.0, "cost": 0.0}, 0)
        dtmdp = build_equivalent_dtmdp(model)
        out, _ = bellman_apply(dtmdp, ValueFunction.constant(4))
        assert out.values.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_probability_edge_absorbs_infinity(self):
        # two actions: one never reaches the infinite state, one does
        kernel = np.zeros((3, 2, 3))
        kernel[0, 0] = [0.0, 1.0, 0.0]
        kernel[0, 1] = [0.0, 0.5, 0.5]
        kernel[1, :, 1] = 1.0
        kernel[2, :, 2] = 1.0
        dtmdp = DtmdpModel(["x", "good", "bad"], ["u", "v"], None, kernel,
                           np.zeros((3, 2)))
        v = ValueFunction(np.array([1.0, 1.0, np.inf]))
        out, choice = bellman_apply(dtmdp, v)
        assert out.values[0] == 1.0
        assert choice.choice[0] == 0

    def test_tie_breaks_to_lowest_index(self):
        kernel = np.zeros((1, 3, 1))
        kernel[:, :, 0] = 1.0
        log_cost = np.full((1, 3), math.log(2.0))
        dtmdp = DtmdpModel(["s"], ["u", "v", "w"], None, kernel, log_cost)
        _, choice = bellman_apply(dtmdp, ValueFunction.constant(1))
        assert choice.choice == (0,)


class TestValueIterate:
    def test_two_state_value_and_contraction(self, two_state_dtmdp):
        report = value_iterate(two_state_dtmdp, tol=1e-12)
        assert report.converged
        assert report.value[1] == pytest.approx(TWO_STATE_VALUE, abs=1e-10)
        assert report.value[0] == 1.0
        assert not report.infinite_states
        assert report.sup_residual <= 1e-11
        # iterates approach at ratio 2/5
        v = ValueFunction.constant(2)
        gaps = []
        for _ in range(6):
            v = bellman_apply(two_state_dtmdp, v)[0]
            gaps.append(TWO_STATE_VALUE - v.values[1])
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert ratios == pytest.approx([0.4] * 5, abs=1e-9)

    def test_zero_cost_converges_in_one_sweep(self):
        model = gen_example("two_state", {"q": 4, "c": 0}, 0)
        report = value_iterate(build_equivalent_dtmdp(model))
        assert report.iterations == 1
        assert report.value.values.tolist() == [1.0, 1.0]

    def test_pure_self_loop_with_cost_classified_infinite(self):
        report, _ = solve_ctmdp(_stuck_model(cost_rate=2.0))
        assert report.converged
        assert report.infinite_states == frozenset({0})
        assert math.isinf(report.value[0])

    def test_divergence_growth_factor(self):
        # weight 1 + k, so each sweep multiplies by (1 + k)
        k = 2.0
        dtmdp = build_equivalent_dtmdp(_stuck_model(cost_rate=k))
        v = ValueFunction.constant(1)
        for n in range(1, 8):
            v = bellman_apply(dtmdp, v)[0]
            assert v.values[0] == pytest.approx((1 + k) ** n, rel=1e-12)

    def test_infinity_propagates_to_feeding_states(self):
        raw = {"states": ["a", "b"], "actions": ["a0"],
               "rates": [{"from": "a", "action": "a0", "to": "b", "rate": 1.0}],
               "costs": [{"state": "b", "action": "a0", "rate": 1.0}]}
        report, _ = solve_ctmdp(validate_model(raw))
        assert report.infinite_states == frozenset({0, 1})
        assert report.converged

    def test_max_iters_exhaustion_reports_not_converged(self, two_state_dtmdp):
        report = value_iterate(two_state_dtmdp, tol=1e-12, max_iters=3)
        assert not report.converged
        assert report.iterations == 3

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-3}, {"max_iters": -1}, {"max_iters": 0}])
    def test_parameter_validation(self, two_state_dtmdp, kwargs):
        with pytest.raises(ValueError):
            value_iterate(two_state_dtmdp, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": math.nan}, "tol must be positive, got nan")])
    def test_nan_parameters_are_rejected(self, kwargs, message):
        """NaN fails every comparison, so `tol <= 0` lets it through: a
        NaN tol never stopped."""
        model = gen_example("birth_death", {"levels": 5, "birth": 3,
                                            "death": 1, "cost": 1}, 0)
        dtmdp = build_equivalent_dtmdp(model)
        policy = StationaryPolicy((0,) * model.n_states)
        for call in (lambda: value_iterate(dtmdp, **kwargs),
                     lambda: evaluate_policy_iterative(dtmdp, policy,
                                                       **kwargs)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_overflow_to_infinity_warns_nothing(self):
        """Value iteration finds a divergent state by the ratio test or by
        its iterate overflowing to inf; numpy must not report either as a
        warning."""
        model = gen_example("birth_death", {"levels": 63, "birth": 3,
                                            "death": 1, "cost": 1}, 0)
        chain = _overflowing_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = solve_ctmdp(model)
            values = evaluate_policy_iterative(
                build_equivalent_dtmdp(model), report.policy)
            overflowed = evaluate_policy_iterative(chain, only_policy(chain))
        assert report.infinite_states
        assert not values.finite_mask.all()
        assert overflowed.values.tolist() == _overflowing_chain_value(chain)

    @pytest.mark.parametrize("call, infinite", [
        pytest.param(lambda d: value_iterate(d, max_iters=1).value,
                     [False, False, False], id="vi-1"),
        pytest.param(lambda d: value_iterate(d, max_iters=2).value,
                     [True, False, False], id="vi-2"),
        pytest.param(lambda d: policy_iterate(d, max_iters=1).value,
                     [False, False, False], id="pi-1"),
        pytest.param(lambda d: policy_iterate(d, max_iters=2).value,
                     [True, False, False], id="pi-2"),
        pytest.param(lambda d: bellman_apply(
            d, ValueFunction([1e200, 1e200, 1.0]))[0], [True, False, False],
            id="bellman_apply")])
    def test_overflow_outside_the_loop_warns_nothing(self, call, infinite):
        """The closing sweep of value_iterate, from which an out-of-budget
        policy iteration reports, and bellman_apply overflow to inf on the
        overflowing chain outside the loop: divergence, not a warning.
        infinite: which states read inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = call(_overflowing_chain())
        assert np.isinf(value.values).tolist() == infinite

    @pytest.mark.parametrize("evaluate", [
        lambda d: evaluate_policy_linear(d, only_policy(d)),
        lambda d: policy_iterate(d).value,
        lambda d: value_iterate(d).value], ids=["linear", "pi", "vi"])
    def test_inflow_beyond_the_float_range_is_infinite(self, evaluate):
        """x's value 1e400 is its inflow from y, which overflows when the
        linear evaluator values x's class: inf, and no warning."""
        chain = _overflowing_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = evaluate(chain)
        assert value.values.tolist() == _overflowing_chain_value(chain)

    def test_growth_bound_at_the_largest_float_warns_nothing(self):
        """x moves to end, which absorbs at no cost, the step weighing W a
        few ulps below the largest float: x's value W is finite, but on the
        first sweep the divergence test's bound (1 + margin) y overflows
        on the lazy iterate y(x) = 1 + W, and so does T y(x) = 2 W."""
        largest = np.finfo(float).max
        log_w = math.log(largest)
        scale = 1.0
        while not math.exp(log_w) * scale >= largest * (1 - 4e-16):
            scale = np.nextafter(scale, 2.0)
        while math.isinf(math.exp(log_w) * scale):
            scale = np.nextafter(scale, 0.0)
        chain = DtmdpModel(["x", "end"], ["u"], None,
                           [[[0.0, scale]], [[0.0, 1.0]]],
                           [[log_w], [0.0]])
        weight = float(chain.step_weights[0, 0, 1])
        margin = 2 * (2 + 1) * float(np.finfo(float).eps)  # n=2
        assert math.isinf((1.0 + margin) * (1.0 + weight))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [value_iterate(chain).value, policy_iterate(chain).value,
                       evaluate_policy_iterative(chain, only_policy(chain)),
                       evaluate_policy_linear(chain, only_policy(chain))]
        for value in results:
            assert value.values.tolist() == [weight, 1.0]

    def test_a_periodic_class_is_shown_infinite_in_two_sweeps(
            self, monkeypatch):
        """{x, y} has period 2: the lazy iterate grows on every sweep, so
        the test of the first sweep shows it infinite and the second
        converges.  On the plain iterate it took 71 687 sweeps."""
        dtmdp = periodic_class()
        report = value_iterate(dtmdp)
        assert report.iterations <= 2 and report.converged
        assert report.infinite_states == {1, 2}
        values, iterations, converged = _recorded_loop(
            monkeypatch, evaluate_policy_iterative, dtmdp,
            only_policy(dtmdp))
        assert iterations <= 2 and converged
        assert np.isinf(values).tolist() == [False, True, True]

    def test_monotone_sweeps_explicit(self, monotone_corpus):
        for item in monotone_corpus[:20]:
            v = ValueFunction.constant(item.model.n_states)
            for _ in range(60):
                nxt = bellman_apply(item.dtmdp, v)[0]
                assert np.all(nxt.values >= v.values)
                v = nxt


class TestExtractPolicy:
    def test_singleton_action(self, two_state_dtmdp):
        report = value_iterate(two_state_dtmdp)
        assert bellman_apply(two_state_dtmdp, report.value)[1].choice == (0, 0)

    def test_prefers_strictly_better_action(self):
        model = _two_action_two_state()
        report, dtmdp = solve_ctmdp(model)
        work = model.state_index("work")
        assert report.value[work] == pytest.approx(TWO_STATE_VALUE, abs=1e-10)
        assert report.policy.choice[work] == model.action_index("a")

    def test_identical_actions_tie_break(self):
        raw = {
            "states": ["absorb", "work"],
            "actions": ["a", "b"],
            "rates": [
                {"from": "work", "action": "a", "to": "absorb", "rate": 4.0},
                {"from": "work", "action": "b", "to": "absorb", "rate": 4.0},
            ],
            "costs": [
                {"state": "work", "action": "a", "rate": 1.0},
                {"state": "work", "action": "b", "rate": 1.0},
            ],
        }
        report, _ = solve_ctmdp(validate_model(raw))
        assert report.policy.choice == (0, 0)

    def test_infinite_state_gets_lowest_admissible(self):
        raw = {
            "states": ["stuck"], "actions": ["a", "b"],
            "admissible": {"stuck": ["b"]},
            "rates": [],
            "costs": [{"state": "stuck", "action": "b", "rate": 1.0}],
        }
        report, dtmdp = solve_ctmdp(validate_model(raw))
        assert math.isinf(report.value[0])
        assert report.policy.choice == (1,)

    def test_policy_iteration_picks_the_value_iteration_policy(
            self, monotone_corpus):
        checked = 0
        for item in monotone_corpus:
            if item.n_actions < 2 or _min_action_gap(item) <= 100 * CORPUS_TOL:
                continue
            report, _ = solve_ctmdp(item.model)
            assert report.policy.choice == item.report.policy.choice
            checked += 1
            if checked >= 25:
                break
        assert checked >= 10


def _min_action_gap(item):
    """Smallest nonzero spread between action values at the solved value.

    Exact ties (identical action rows, e.g. at absorbing states) are
    resolved by the index tie-break at any tolerance, so only strictly
    positive gaps can be flipped by solver noise.
    """
    from riskctmdp.solver import _action_values
    vals = _action_values(item.dtmdp)(item.report.value.values)
    gap = np.inf
    for x in range(item.model.n_states):
        acts = item.model.admissible[x]
        if len(acts) < 2:
            continue
        row = np.sort(vals[x, list(acts)])
        diffs = np.diff(row[np.isfinite(row)])
        positive = diffs[diffs > 0]
        if len(positive):
            gap = min(gap, float(positive.min()))
    return gap


class TestPolicyEvaluation:
    def test_two_state_both_methods(self, two_state, two_state_dtmdp):
        policy = only_policy(two_state)
        linear = evaluate_policy_linear(two_state_dtmdp, policy)
        assert linear.values[1] == pytest.approx(TWO_STATE_VALUE, abs=1e-12)
        iterative = evaluate_policy_iterative(two_state_dtmdp, policy,
                                              tol=1e-12)
        assert iterative.values[1] == pytest.approx(TWO_STATE_VALUE, abs=1e-10)

    def test_pure_birth_product_value(self, pure_birth, pure_birth_dtmdp):
        policy = only_policy(pure_birth)
        linear = evaluate_policy_linear(pure_birth_dtmdp, policy)
        iterative = evaluate_policy_iterative(pure_birth_dtmdp, policy,
                                              tol=1e-12)
        assert linear.values[0] == pytest.approx(PURE_BIRTH_VALUE, abs=1e-12)
        assert iterative.values[0] == pytest.approx(PURE_BIRTH_VALUE, abs=1e-8)

    def test_all_absorbing_zero_cost_empty_system(self):
        model = validate_model({"states": ["a", "b"], "actions": ["u"],
                                "rates": [], "costs": []})
        dtmdp = build_equivalent_dtmdp(model)
        value = evaluate_policy_linear(dtmdp, only_policy(model))
        assert value.values.tolist() == [1.0, 1.0]

    def test_methods_agree_on_corpus(self, monotone_corpus):
        for item in monotone_corpus[:60]:
            policy = item.report.policy
            linear = evaluate_policy_linear(item.dtmdp, policy)
            iterative = evaluate_policy_iterative(item.dtmdp, policy,
                                                  tol=1e-12)
            assert np.array_equal(linear.finite_mask, iterative.finite_mask)
            both = linear.finite_mask
            if both.any():
                assert np.max(np.abs(linear.values[both]
                                     - iterative.values[both])) <= 1e-8

    def test_divergent_policy_is_classified_by_the_linear_route(self):
        # supercritical cycle: two states feeding each other at high cost
        raw = {
            "states": ["p", "q"], "actions": ["u"],
            "rates": [{"from": "p", "action": "u", "to": "q", "rate": 1.0},
                      {"from": "q", "action": "u", "to": "p", "rate": 1.0}],
            "costs": [{"state": "p", "action": "u", "rate": 0.9},
                      {"state": "q", "action": "u", "rate": 0.9}],
        }
        model = validate_model(raw)
        dtmdp = build_equivalent_dtmdp(model)
        policy = only_policy(model)
        linear = evaluate_policy_linear(dtmdp, policy)
        iterative = evaluate_policy_iterative(dtmdp, policy)
        assert np.all(np.isinf(linear.values))
        assert np.array_equal(linear.finite_mask, iterative.finite_mask)

    def test_rejects_inadmissible_policy(self, two_state_dtmdp):
        with pytest.raises(ModelError):
            evaluate_policy_iterative(two_state_dtmdp,
                                      StationaryPolicy((0,)))


class TestOptimalityResidual:
    def test_hand_values(self, two_state):
        solved = ValueFunction(np.array([1.0, TWO_STATE_VALUE]))
        res = optimality_residual(two_state, solved)
        assert res[1] == pytest.approx(0.0, abs=1e-12)
        assert res[0] == 0.0

        ones = ValueFunction.constant(2)
        assert optimality_residual(two_state, ones)[1] == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_cost_constant_residual(self):
        model = gen_example("birth_death", {"levels": 3, "birth": 1.0,
                                            "death": 1.0, "cost": 0.0}, 0)
        res = optimality_residual(model, ValueFunction.constant(4))
        assert all(abs(r) <= 1e-12 for r in res.values())

    def test_infinite_states_skipped(self):
        report, _ = solve_ctmdp(_stuck_model())
        res = optimality_residual(_stuck_model(), report.value)
        assert res == {}

    def test_value_of_the_wrong_length(self, two_state):
        with pytest.raises(ModelError, match="value function length does "
                                             "not match model"):
            optimality_residual(two_state, ValueFunction.constant(3))

    def test_matches_per_state_loop(self, monotone_corpus):
        """Equal, bit for bit, to the per-state, per-action loop, on solved
        and perturbed values, with infinite states and restricted
        admissible sets."""
        golden = Path(__file__).parent / "golden" / "infinite.model.json"
        infinite = validate_model(jsonio.loads(golden.read_text()))
        cases = [(infinite, solve_ctmdp(infinite)[0].value)]
        rng = np.random.default_rng(3)
        for item in monotone_corpus[:40]:
            value = item.report.value
            cases.append((item.model, value))
            cases.append((item.model, ValueFunction(
                value.values * (1.0 + rng.random(len(value))))))
        for model, value in cases:
            assert optimality_residual(model, value) == _residual_loop(model,
                                                                       value)


def _residual_loop(model, v):
    """Reference form of optimality_residual: one candidate per admissible
    action of each finite-value state."""
    vals = v.values
    finite = v.finite_mask
    safe = np.where(finite, vals, 0.0)
    out = {}
    for x in np.flatnonzero(finite):
        best = np.inf
        for a in model.admissible[x]:
            row = model.rates[x, a]
            if np.any(row[~finite] > 0.0):
                continue
            best = min(best, model.costs[x, a] * vals[x] + row @ safe
                       - model.total_rates[x, a] * vals[x])
        out[int(x)] = float(best)
    return out


class TestSupersolution:
    def test_solved_value_passes(self, monotone_corpus):
        for item in monotone_corpus[:10]:
            assert check_supersolution(item.model, item.report.value,
                                       item.report.value)

    def test_doubled_constant_on_zero_cost_model(self):
        model = validate_model({"states": ["a", "b"], "actions": ["u"],
                                "rates": [{"from": "b", "action": "u",
                                           "to": "a", "rate": 2.0}],
                                "costs": []})
        report, _ = solve_ctmdp(model)
        doubled = ValueFunction(2.0 * report.value.values)
        assert check_supersolution(model, doubled, report.value)

    def test_ones_fail_below_solution(self, two_state):
        report, _ = solve_ctmdp(two_state)
        assert not check_supersolution(two_state, ValueFunction.constant(2),
                                       report.value)

    def test_any_positive_dip_fails_domination(self, two_state):
        report, _ = solve_ctmdp(two_state)
        for eps in [1e-9, 1e-3, 0.3]:
            dipped = report.value.values.copy()
            dipped[1] -= eps
            assert not check_supersolution(two_state, ValueFunction(dipped),
                                           report.value)


class TestValueFunction:
    def test_rejects_nan_and_below_one(self):
        with pytest.raises(ValueError):
            ValueFunction(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            ValueFunction(np.array([0.999999, 1.0]))

    def test_below_one_message_prints_a_plain_float(self):
        with pytest.raises(ValueError) as err:
            ValueFunction(np.array([1.0, 0.5]))
        assert str(err.value) == "value 0.5 at state index 1 is below 1"

    def test_holds_a_copy_of_the_callers_array(self):
        base = np.ones(2)
        vf = ValueFunction(base[:])
        base[0] = 0.5
        assert vf.values.tolist() == [1.0, 1.0]
        assert base.flags.writeable


def _self_loop_dtmdp():
    """'a' absorbs at zero cost; 'b' loops on itself at factor e^400 per
    step, so its iterates would overflow to inf on the second sweep."""
    kernel = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    return DtmdpModel(["a", "b"], ["u"], None, kernel,
                      np.array([[0.0], [400.0]]))


class TestSolveReport:
    def test_infinite_states_is_not_a_field(self):
        assert "infinite_states" not in {
            f.name for f in dataclasses.fields(solver.SolveReport)}
        with pytest.raises(TypeError, match="infinite_states"):
            solver.SolveReport(value=ValueFunction.constant(1),
                               policy=StationaryPolicy((0,)), iterations=0,
                               sup_residual=0.0, converged=True,
                               infinite_states=frozenset())

    @pytest.mark.parametrize("run", [
        lambda: value_iterate(_self_loop_dtmdp()),
        lambda: solver.policy_iterate(_self_loop_dtmdp()),
        lambda: solver.policy_iterate(_self_loop_dtmdp(), max_iters=2),
        lambda: solve_ctmdp(validate_model({
            "states": ["a", "b"], "actions": ["a0"],
            "rates": [{"from": "a", "action": "a0", "to": "b", "rate": 1.0}],
            "costs": [{"state": "b", "action": "a0", "rate": 1.0}]}))[0]],
        ids=["value_iterate", "policy_iterate", "out_of_budget",
             "solve_ctmdp"])
    def test_infinite_states_are_read_off_the_value(self, run):
        report = run()
        assert report.infinite_states
        assert report.infinite_states == frozenset(
            np.flatnonzero(np.isinf(report.value.values)).tolist())

    def test_to_dict_holds_a_float_inf_that_dumps_writes_as_inf(self):
        report = value_iterate(_self_loop_dtmdp())
        out = report.to_dict(("a", "b"), ("u",))
        assert out["values"] == {"a": 1.0, "b": math.inf}
        assert type(out["values"]["b"]) is float
        assert out["infinite_states"] == ["b"]
        assert '"b": "inf"' in jsonio.dumps(out)


# The fixed-point loop and the sweep as plain as they can be: every sweep
# floors, checks monotonicity, measures the change and stops on it, and the
# value-iteration sweep masks inadmissible pairs with np.where, computes
# the argmin and drops it.  Where no state is infinite the loop must
# reproduce them bit for bit: its divergence test then finds nothing and
# changes nothing.  Where some are, it must reproduce the same loop with
# the divergence test written out plainly (_reference_growing_iterate).

def _reference_masked_apply(weights, v):
    inf_mask = np.isinf(v)
    flat = weights.reshape(-1, weights.shape[-1])
    if not inf_mask.any():
        with np.errstate(over="ignore"):  # overflow to inf is intended here
            out = flat @ v
    else:
        out = flat @ np.where(inf_mask, 0.0, v)
        reaches = (flat[:, inf_mask] > 0).any(axis=1)
        out[reaches] = np.inf
    return out.reshape(weights.shape[:-1])


def _reference_argmin_admissible(vals, adm_mask):
    vals = np.where(adm_mask, vals, np.inf)
    best = vals.min(axis=1)
    attains = adm_mask & (vals == best[:, None])
    return best, np.argmax(attains, axis=1)


def _reference_iterate(sweep, n, tol, max_iters):
    v = np.ones(n)
    for iterations in range(1, max_iters + 1):
        tv = np.maximum(sweep(v), 1.0)
        if np.any(tv < v):
            x = int(np.argwhere(tv < v)[0][0])
            raise SolverError(
                f"monotonicity violated at state index {x}: "
                f"{float(v[x])!r} -> {float(tv[x])!r}")
        change = float(((tv - v) / v).max())
        v = tv
        if change < tol:
            return v, iterations, True
    return v, iterations, False


def _reference_growing(operator, y):
    """_growing as plainly as it can be: a np.where per pass, and the bound
    formed per pass with np.finfo."""
    grow = np.isfinite(y)
    while grow.any():
        kept = grow & (operator(np.where(grow, y, 0.0))
                       > (1.0 + 2 * (len(y) + 1) * np.finfo(float).eps) * y)
        if np.array_equal(kept, grow):
            break
        grow = kept
    return grow


def _reference_growing_iterate(sweep, n, tol, max_iters):
    """The loop with its divergence test, every sweep building and applying
    the mask of the states already infinite: on sweeps 1, 2, 4, ... the
    states that _reference_growing finds on v + T v are set to inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ones(n)
        for iterations in range(1, max_iters + 1):
            pinned = np.isinf(v)
            tv = np.maximum(sweep(v), 1.0)
            tv[pinned] = np.inf
            assert not np.any(tv < v)
            change = ((tv - v) / v).max(where=~pinned, initial=0.0)
            if change >= tol and iterations & (iterations - 1) == 0:
                tv[_reference_growing(sweep, v + tv)] = np.inf
            v = tv
            if change < tol:
                return v, iterations, True
    return v, iterations, False


def _recorded_loop(monkeypatch, run, *args, **kwargs):
    """(values, iterations, converged) of the one fixed-point loop that
    run(*args, **kwargs) goes through."""
    loops = []

    def record(sweep, *rest):
        loops.append(iterate(sweep, *rest))
        return loops[-1]
    iterate = solver._iterate
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_iterate", record)
        run(*args, **kwargs)
    (loop,) = loops
    return loop


def _recorded_sweeps(monkeypatch, run, *args, **kwargs):
    """Each sweep's input and output in the one fixed-point loop that
    run(*args, **kwargs) goes through, and what run returns."""
    sweeps = []

    def record(sweep, *rest):
        def recorded(v):
            sweeps.append((v.copy(), sweep(v).copy()))
            return sweeps[-1][1]
        return iterate(recorded, *rest)
    iterate = solver._iterate
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_iterate", record)
        result = run(*args, **kwargs)
    return sweeps, result


def _lagging_pair():
    """y loops at price 3 and x moves to y at price 1000: x grows only
    through y, so x is shown infinite only together with y."""
    kernel = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    log_cost = np.array([[math.log(3.0)], [math.log(1000.0)]])
    return DtmdpModel(["y", "x"], ["u"], None, kernel, log_cost)


def _overflowing_chain():
    """x moves to y and y to end, each step weighing 1e200, and end stays
    at no cost: y's value is 1e200, and x's, 1e400, is beyond the float
    range.  No set grows on the lazy iterate, as y settles on the first
    sweep, so the iterate of x overflows to inf on the second."""
    kernel = np.zeros((3, 1, 3))
    kernel[0, 0, 1] = kernel[1, 0, 2] = kernel[2, 0, 2] = 1.0
    log_cost = [[math.log(1e200)], [math.log(1e200)], [0.0]]
    return DtmdpModel(["x", "y", "end"], ["u"], None, kernel, log_cost)


def _overflowing_chain_value(chain):
    """[inf, y's step weight (1e200 to within rounding), 1]."""
    return [math.inf, float(chain.step_weights[1, 0, 2]), 1.0]


def _two_state(c):
    return build_equivalent_dtmdp(gen_example("two_state", {"q": 1, "c": c}, 0))


def _divergent():
    return build_equivalent_dtmdp(gen_example(
        "birth_death", {"levels": 63, "birth": 3, "death": 1, "cost": 1}, 0))


def _restricted(kernel, step_cost, seed):
    """A model on these arrays with a random non-empty admissible subset
    at each state (as in test_oracle), so that some pairs are inadmissible
    with weights of their own."""
    n, m = step_cost.shape
    rng = np.random.default_rng(seed)
    admissible = [rng.choice(m, rng.integers(1, m + 1), replace=False).tolist()
                  for _ in range(n)]
    return DtmdpModel([f"s{i}" for i in range(n)],
                      [f"a{j}" for j in range(m)], admissible, kernel,
                      step_cost)


def _restricted_random(seed):
    full = build_equivalent_dtmdp(gen_example("random", {"n": 64, "m": 8},
                                              seed))
    return _restricted(full.kernel, full.step_cost, seed)


def _leaking_into_growth(seed=1):
    """The reduced `gen random` n=12 m=3 model beside the divergent
    birth_death levels=5 one; the last action of each random state leaks
    a tenth of its mass to the top level.  At seed 1, restricted, s5 is
    left that action only and s10 one action into s5: with s13-s17 they
    are infinite, the rest finite."""
    finite = build_equivalent_dtmdp(gen_example("random", {"n": 12, "m": 3},
                                                seed))
    growing = build_equivalent_dtmdp(gen_example(
        "birth_death", {"levels": 5, "birth": 3, "death": 1, "cost": 1}, 0))
    n = 12 + growing.n_states
    kernel, step_cost = np.zeros((n, 3, n)), np.zeros((n, 3))
    kernel[:12, :, :12], step_cost[:12] = finite.kernel, finite.step_cost
    kernel[12:, :, 12:], step_cost[12:] = growing.kernel, growing.step_cost
    kernel[:12, 2] *= 0.9
    kernel[:12, 2, n - 1] = 0.1
    return _restricted(kernel, step_cost, seed)


LOOP_CASES = [
    pytest.param(lambda: _two_state(0.99), {}, id="two_state-c0.99"),
    pytest.param(lambda: _two_state(0.999), {}, id="two_state-c0.999"),
    *(pytest.param(lambda seed=seed: build_equivalent_dtmdp(gen_example(
        "random", {"n": 64, "m": 8}, seed)), {}, id=f"random64x8-{seed}")
      for seed in (1, 2, 3)),
    pytest.param(_divergent, {}, id="birth_death63-pinned"),
    pytest.param(lambda: build_equivalent_dtmdp(_stuck_model()), {},
                 id="self-loop-pinned"),
    pytest.param(_lagging_pair, {}, id="pinned-ahead-of-successor"),
    pytest.param(periodic_class, {}, id="periodic-class"),
    pytest.param(lambda: _two_state(0.999), {"max_iters": 3},
                 id="max_iters-3"),
    *(pytest.param(lambda seed=seed: _restricted_random(seed), {},
                   id=f"random64x8-{seed}-restricted")
      for seed in (1, 2)),
    pytest.param(_leaking_into_growth, {}, id="restricted-leak-pinned"),
]


# policy_iterate on the restricted cases: sha256 of the values' bytes, the
# policy's action indices and the infinite states, pinned as computed with
# np.where masking the inadmissible pairs
RESTRICTED_SOLVED = {
    "random64x8-1-restricted": (
        "8b7e36354b8656c79be9fca6337cb3214adf087806b29c4c86cc125914d3d115",
        "0630552662763563154444532652457740574577046453112466405547133212",
        set()),
    "random64x8-2-restricted": (
        "4b4b647f0fc78ecadcf4bdfcdc21749a2941c192c11005c4a10f55f348e076ea",
        "0230161544240637002641316562063763204012020137762342070154362743",
        set()),
    "restricted-leak-pinned": (
        "10ae63f7eaa022184ca43d587a903083a3d2a45e19ee599435570369aea57e3b",
        "100012001010020000", {5, 10, 13, 14, 15, 16, 17}),
}


def _check_loop(loop, dtmdp, sweep, tol=solver.DEFAULT_TOL,
                max_iters=solver.DEFAULT_MAX_ITERS):
    """A loop on a finite case is the plain loop's over `sweep`, bit for
    bit.  The plain loop does not stop on a divergent case; there the loop
    is the plain loop with its divergence test written out, bit for bit,
    and must converge to policy iteration's infinite set, which the exact
    check proves, and to its values elsewhere."""
    values, iterations, converged = loop
    solved = policy_iterate(dtmdp)
    if not solved.infinite_states:
        want = _reference_iterate(sweep, dtmdp.n_states, tol, max_iters)
        assert values.tobytes() == want[0].tobytes()
        assert (iterations, converged) == want[1:]
        return
    want = _reference_growing_iterate(sweep, dtmdp.n_states, tol, max_iters)
    assert np.array_equal(np.isinf(values), np.isinf(want[0]))
    assert values.tobytes() == want[0].tobytes()
    assert (iterations, converged) == want[1:]
    assert converged
    assert np.array_equal(np.isinf(values), ~solved.value.finite_mask)
    exact.assert_infinite_set(dtmdp, solved.infinite_states)
    finite = np.isfinite(values)
    np.testing.assert_allclose(values[finite], solved.value.values[finite],
                               rtol=10 * solver.DEFAULT_TOL)


def _sweeps(dtmdp, policy=None):
    """The plain value-iteration sweep, or the sweep of a fixed policy."""
    if policy is None:
        weights, adm = dtmdp.step_weights, dtmdp.admissible_mask
        return lambda v: _reference_argmin_admissible(
            _reference_masked_apply(weights, v), adm)[0]
    rows = np.arange(dtmdp.n_states)
    weights = dtmdp.step_weights[rows, np.asarray(policy.choice), :]
    return lambda v: _reference_masked_apply(weights, v)


class TestLeanLoopMatchesReference:
    """value_iterate and evaluate_policy_iterative against _reference_iterate,
    the plain loop with no divergence test, bit for bit on finite cases; on
    divergent ones, against _reference_growing_iterate bit for bit, and
    against policy iteration and the exact check (see _check_loop).  The class keeps the name it had when value iteration
    had a second, lean loop body."""

    @pytest.mark.parametrize("build, kwargs", LOOP_CASES)
    def test_value_iterate(self, build, kwargs):
        dtmdp = build()
        report = value_iterate(dtmdp, **kwargs)
        _check_loop((report.value.values, report.iterations,
                     report.converged), dtmdp, _sweeps(dtmdp), **kwargs)

    def test_monotone_corpus(self, monotone_corpus):
        """Its reports come from value_iterate at tol 1e-12; seed 10 136
        has seven infinite states."""
        for item in monotone_corpus:
            report = item.report
            _check_loop((report.value.values, report.iterations,
                         report.converged), item.dtmdp, _sweeps(item.dtmdp),
                        tol=CORPUS_TOL)

    def test_corpus_exercises_every_branch(self):
        report = value_iterate(_two_state(0.999), max_iters=3)
        assert not report.converged and report.iterations == 3
        report = value_iterate(_divergent())
        assert report.converged and len(report.infinite_states) == 63
        report = value_iterate(_lagging_pair())
        assert report.converged and report.infinite_states == {0, 1}
        report = value_iterate(_overflowing_chain())
        assert report.converged and report.infinite_states == {0}
        report = value_iterate(periodic_class())
        assert report.converged and report.infinite_states == {1, 2}
        report = value_iterate(_leaking_into_growth())
        assert report.converged
        assert report.infinite_states == {5, 10, 13, 14, 15, 16, 17}

    @pytest.mark.parametrize("build, kwargs", [
        case for case in LOOP_CASES if case.id in RESTRICTED_SOLVED])
    def test_policy_iterate_on_restricted_models(self, request, build,
                                                 kwargs):
        report = policy_iterate(build())
        digest, policy, infinite = RESTRICTED_SOLVED[request.node.callspec.id]
        assert hashlib.sha256(report.value.values.tobytes()).hexdigest() \
            == digest
        assert "".join(map(str, report.policy.choice)) == policy
        assert report.infinite_states == infinite
        assert report.converged

    @pytest.mark.parametrize("build, kwargs", [
        case for case in LOOP_CASES if case.id in (
            "random64x8-1", "birth_death63-pinned",
            "pinned-ahead-of-successor", "max_iters-3",
            "restricted-leak-pinned")])
    def test_evaluate_policy_iterative(self, monkeypatch, build, kwargs):
        dtmdp = build()
        policy = value_iterate(dtmdp).policy
        loop = _recorded_loop(monkeypatch, evaluate_policy_iterative, dtmdp,
                              policy, **kwargs)
        _check_loop(loop, dtmdp, _sweeps(dtmdp, policy), **kwargs)

    @pytest.mark.parametrize("build, kwargs", LOOP_CASES)
    def test_a_state_once_infinite_stays_infinite(self, monkeypatch, build,
                                                  kwargs):
        """Every state infinite in a sweep's input is infinite in its
        output, so the loop needs no record of them beside its iterate.
        Where value iteration converges, the last sweep's input is already
        infinite exactly where the result is: the property is not
        vacuous on the cases with infinite states."""
        dtmdp = build()
        sweeps, report = _recorded_sweeps(monkeypatch, value_iterate, dtmdp,
                                          **kwargs)
        fixed, _ = _recorded_sweeps(monkeypatch, evaluate_policy_iterative,
                                    dtmdp, report.policy, **kwargs)
        for v, tv in sweeps + fixed:
            assert np.isinf(tv[np.isinf(v)]).all()
        if report.converged:
            assert set(np.flatnonzero(np.isinf(sweeps[-1][0])).tolist()) \
                == report.infinite_states

    @pytest.mark.parametrize("operator", [
        lambda v: np.zeros(2), lambda v: np.array([2.0 * v[0], v[1]])],
        ids=["nothing-pinned", "after-a-pin"])
    def test_non_monotone_sweep_fails_alike(self, operator):
        """State 0 doubles; state 1 grows by one and dips on the sixth
        sweep.  Under the second operator the divergence test sets state 0
        to inf on the first sweep, where the plain loop keeps doubling it."""
        def dipping():
            calls = [0]

            def sweep(v):
                calls[0] += 1
                return np.array([2.0 * v[0],
                                 v[1] - 0.5 if calls[0] == 6 else v[1] + 1.0])
            return sweep, calls

        errors = []
        for iterate in (lambda sweep: solver._iterate(sweep, 2, 1e-10, 100,
                                                      operator),
                        lambda sweep: _reference_iterate(sweep, 2, 1e-10,
                                                         100)):
            sweep, calls = dipping()
            with pytest.raises(SolverError) as err:
                iterate(sweep)
            errors.append((str(err.value), calls[0]))
        assert errors[0] == errors[1]
        assert errors[0][0] == ("monotonicity violated at state index 1: "
                                "6.0 -> 5.5")
        assert errors[0][1] == 6
