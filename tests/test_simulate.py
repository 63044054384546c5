import itertools
import warnings

import numpy as np
import pytest
from scipy import stats

from riskctmdp.model import StationaryPolicy, gen_example, validate_model
from riskctmdp.reduction import build_equivalent_dtmdp
from riskctmdp.simulate import (ABSORBED, TRUNCATED, _JumpTables, _lockstep,
                                _philox, _summarize, _uniforms,
                                estimate_dtmdp_value_mc, estimate_value_mc,
                                sample_trajectory, trajectory_stream)
from riskctmdp.solver import evaluate_policy_linear
from conftest import only_policy

TWO_STATE_VALUE = 4.0 / 3.0
PURE_BIRTH_VALUE = 1024.0 / 315.0


class TestSampleTrajectory:
    def test_two_state_structure(self, two_state):
        policy = only_policy(two_state)
        for i in range(50):
            t = sample_trajectory(two_state, policy, 1,
                                  trajectory_stream(11, i))
            assert t.terminal == ABSORBED
            assert len(t.jumps) == 1
            state, action, holding = t.jumps[0]
            assert (state, action) == (1, 0)
            assert holding > 0.0
            # unit cost rate: accumulated cost equals the holding time
            assert t.accumulated_cost.value == pytest.approx(holding,
                                                             rel=1e-15)
            assert t.final_state == 0

    def test_pure_birth_structure(self, pure_birth):
        policy = only_policy(pure_birth)
        for i in range(25):
            t = sample_trajectory(pure_birth, policy, 0,
                                  trajectory_stream(5, i))
            assert t.terminal == ABSORBED
            assert len(t.jumps) == 4
            assert [j[0] for j in t.jumps] == [0, 1, 2, 3]
            assert t.final_state == 4
            assert t.accumulated_cost.value == pytest.approx(t.elapsed_time,
                                                             rel=1e-12)

    def test_absorbing_with_cost_is_infinite(self):
        model = validate_model({
            "states": ["stuck"], "actions": ["a0"], "rates": [],
            "costs": [{"state": "stuck", "action": "a0", "rate": 2.0}],
        })
        t = sample_trajectory(model, only_policy(model), 0,
                              trajectory_stream(0, 0))
        assert t.terminal == ABSORBED
        assert not t.accumulated_cost.is_finite
        assert t.jumps == ()

    def test_truncation_and_prefix_stability(self):
        model = gen_example("birth_death", {"levels": 3, "birth": 1.0,
                                            "death": 1.0, "cost": 0.1}, 0)
        policy = only_policy(model)
        short = sample_trajectory(model, policy, 3, trajectory_stream(9, 4),
                                  max_jumps=2)
        longer = sample_trajectory(model, policy, 3, trajectory_stream(9, 4),
                                   max_jumps=20)
        assert short.terminal == TRUNCATED
        assert longer.jumps[:2] == short.jumps
        assert longer.accumulated_cost.value >= short.accumulated_cost.value

    def test_a_zero_draw_holds_for_the_smallest_positive_time(self,
                                                              two_state):
        """A sojourn draw of exactly 0 gives -log1p(-0) = -0.0; the holding
        time is kept positive at the smallest subnormal instead."""
        class Zeros:
            def random(self, size):
                return np.zeros(size)

        t = sample_trajectory(two_state, only_policy(two_state), 1, Zeros())
        assert t.jumps == ((1, 0, 5e-324),)
        assert t.elapsed_time == t.accumulated_cost.value == 5e-324

    def test_deterministic_given_stream(self, two_state):
        policy = only_policy(two_state)
        a = sample_trajectory(two_state, policy, 1, trajectory_stream(3, 7))
        b = sample_trajectory(two_state, policy, 1, trajectory_stream(3, 7))
        assert a == b


class TestInputChecks:
    """Each estimator and sample_trajectory reject counts below 1 and a
    start state outside the model."""

    @pytest.mark.parametrize("x0, n, budget, message", [
        (1, 0, 64, "n must be at least 1, got 0"),
        (1, 10, 0, "{budget} must be at least 1, got 0"),
        (2, 10, 64, "start state index 2 out of range"),
        (-1, 10, 64, "start state index -1 out of range"),
    ], ids=["n", "budget", "x0-past-the-end", "x0-negative"])
    @pytest.mark.parametrize("chain", [False, True], ids=["jump", "chain"])
    def test_estimators(self, two_state, two_state_dtmdp, chain, x0, n,
                        budget, message):
        policy = only_policy(two_state)
        name = "max_steps" if chain else "max_jumps"
        with pytest.raises(ValueError, match=message.format(budget=name)):
            if chain:
                estimate_dtmdp_value_mc(two_state_dtmdp, policy, x0, n, 0,
                                        max_steps=budget)
            else:
                estimate_value_mc(two_state, policy, x0, n, 0,
                                  max_jumps=budget)

    @pytest.mark.parametrize("x0, max_jumps, message", [
        (1, 0, "max_jumps must be at least 1, got 0"),
        (2, 64, "start state index 2 out of range"),
        (-1, 64, "start state index -1 out of range"),
    ], ids=["max_jumps", "x0-past-the-end", "x0-negative"])
    def test_sample_trajectory(self, two_state, x0, max_jumps, message):
        with pytest.raises(ValueError, match=message):
            sample_trajectory(two_state, only_policy(two_state), x0,
                              trajectory_stream(0, 0), max_jumps)


class TestEstimates:
    def test_two_state_within_three_std_errors(self, two_state):
        est = estimate_value_mc(two_state, only_policy(two_state), 1,
                                20_000, master_seed=101)
        assert est.std_error is not None
        assert abs(est.mean.value - TWO_STATE_VALUE) <= 3 * est.std_error
        assert est.truncated_fraction == 0.0
        assert est.lower_bound_mean == est.mean.value

    def test_pure_birth_within_three_std_errors(self, pure_birth):
        est = estimate_value_mc(pure_birth, only_policy(pure_birth), 0,
                                20_000, master_seed=55)
        assert abs(est.mean.value - PURE_BIRTH_VALUE) <= 3 * est.std_error

    def test_zero_cost_exact(self):
        model = gen_example("two_state", {"q": 4, "c": 0}, 0)
        for n in (1, 100):
            est = estimate_value_mc(model, only_policy(model), 1, n, 0)
            assert est.mean.value == 1.0
            assert est.std_error == 0.0

    def test_infinite_sample_makes_mean_infinite(self):
        model = validate_model({
            "states": ["stuck"], "actions": ["a0"], "rates": [],
            "costs": [{"state": "stuck", "action": "a0", "rate": 1.0}],
        })
        est = estimate_value_mc(model, only_policy(model), 0, 50, 0)
        assert not est.mean.is_finite
        assert est.std_error is None
        assert est.lower_bound_mean == 1.0

    @pytest.mark.parametrize("x0", [30, 62])
    def test_overflow_to_infinity_warns_nothing(self, x0):
        """e^cost of a long divergent path overflows to inf, which is the
        estimate; numpy must not report that as a warning."""
        model = gen_example("birth_death", {"levels": 63, "birth": 3,
                                            "death": 1, "cost": 1}, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_value_mc(model, only_policy(model), x0, 100, 0)
        assert not est.mean.is_finite

    def test_heavy_tail_suppresses_std_error(self):
        # near-unit tail index: a single sample can dominate the sum
        model = gen_example("two_state", {"q": 1.0, "c": 0.98}, 0)
        suppressed = 0
        for seed in range(12):
            est = estimate_value_mc(model, only_policy(model), 1, 4000,
                                    master_seed=seed)
            if est.std_error is None and est.mean.is_finite:
                suppressed += 1
        assert suppressed >= 1

    def test_reproducible_and_worker_independent(self, two_state):
        policy = only_policy(two_state)
        base = estimate_value_mc(two_state, policy, 1, 10_000, 77)
        again = estimate_value_mc(two_state, policy, 1, 10_000, 77)
        split2 = estimate_value_mc(two_state, policy, 1, 10_000, 77,
                                   n_workers=2)
        split8 = estimate_value_mc(two_state, policy, 1, 10_000, 77,
                                   n_workers=8)
        assert base == again == split2 == split8
        other_seed = estimate_value_mc(two_state, policy, 1, 10_000, 78)
        assert other_seed.mean != base.mean

    def test_lower_bound_nondecreasing_in_budget(self):
        model = gen_example("birth_death", {"levels": 3, "birth": 1.0,
                                            "death": 1.0, "cost": 0.1}, 0)
        policy = only_policy(model)
        bounds = [estimate_value_mc(model, policy, 3, 500, 13,
                                    max_jumps=budget).lower_bound_mean
                  for budget in (2, 4, 8, 16, 32)]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))

    def test_sojourn_times_pass_ks(self, two_state):
        policy = only_policy(two_state)
        samples = np.empty(100_000)
        for i in range(len(samples)):
            t = sample_trajectory(two_state, policy, 1,
                                  trajectory_stream(2024, i), max_jumps=2)
            samples[i] = t.jumps[0][2]
        result = stats.kstest(samples, "expon", args=(0.0, 1.0 / 4.0))
        assert result.pvalue > 0.001


class TestChainEstimates:
    def test_two_state_chain_within_three_std_errors(self, two_state,
                                                     two_state_dtmdp):
        est = estimate_dtmdp_value_mc(two_state_dtmdp, only_policy(two_state),
                                      1, 20_000, master_seed=202)
        assert abs(est.mean.value - TWO_STATE_VALUE) <= 3 * est.std_error

    def test_zero_cost_chain_exact(self):
        model = gen_example("two_state", {"q": 4, "c": 0}, 0)
        dtmdp = build_equivalent_dtmdp(model)
        est = estimate_dtmdp_value_mc(dtmdp, only_policy(model), 1, 200, 0)
        assert est.mean.value == 1.0
        assert est.std_error == 0.0

    def test_chain_agrees_with_linear_evaluation(self, monotone_corpus):
        item = next(it for it in monotone_corpus if it.n_states == 4
                    and it.report.value.finite_mask.all())
        policy = item.report.policy
        exact = evaluate_policy_linear(item.dtmdp, policy)
        for x0 in range(item.n_states):
            est = estimate_dtmdp_value_mc(item.dtmdp, policy, x0, 30_000,
                                          master_seed=909, max_steps=256)
            if est.std_error:
                band = 4 * est.std_error
            else:
                band = 0.05 * exact.values[x0]
            assert abs(est.mean.value - exact.values[x0]) <= band

    def test_worker_independence(self, two_state, two_state_dtmdp):
        policy = only_policy(two_state)
        runs = [estimate_dtmdp_value_mc(two_state_dtmdp, policy, 1, 8_000,
                                        31, n_workers=k) for k in (1, 2, 8)]
        assert runs[0] == runs[1] == runs[2]


# --- the lockstep driver against scalar references -------------------------

KEYS = (0, 1, 2 ** 64 - 1)
INDICES = (0, 1, 2 ** 63, 2 ** 64 - 1)


def _birth_death():
    """Truncates at the default budget on a few percent of paths."""
    return gen_example("birth_death", {"levels": 5, "birth": 1.0,
                                       "death": 1.0, "cost": 0.02}, 0)


def _costly_absorption():
    """From 'start', a third of the paths absorb in 'stuck' at cost rate
    1 (infinite cost), the rest in 'done' at zero cost."""
    return validate_model({
        "states": ["start", "stuck", "done"], "actions": ["a0"],
        "rates": [{"from": "start", "action": "a0", "to": "stuck",
                   "rate": 1.0},
                  {"from": "start", "action": "a0", "to": "done",
                   "rate": 2.0}],
        "costs": [{"state": "start", "action": "a0", "rate": 0.5},
                  {"state": "stuck", "action": "a0", "rate": 1.0}],
    })


def _paths(model, policy, x0, n, seed, max_jumps):
    """Scalar reference: sample_trajectory on each path's own stream.
    Returns (finite costs, infinite flags, truncated flags, final states);
    the finite cost is summed over the recorded jumps in jump order."""
    costs, infinite, truncated, finals = [], [], [], []
    for i in range(n):
        path = sample_trajectory(model, policy, x0,
                                 trajectory_stream(seed, i), max_jumps)
        cost = 0.0
        for state, action, holding in path.jumps:
            cost += model.costs[state, action] * holding
        if path.accumulated_cost.is_finite:
            assert cost == path.accumulated_cost.value
        costs.append(cost)
        infinite.append(not path.accumulated_cost.is_finite)
        truncated.append(path.terminal == TRUNCATED)
        finals.append(path.final_state)
    return (np.array(costs), np.array(infinite), np.array(truncated),
            np.array(finals))


def _chain_paths(dtmdp, policy, x0, n, seed, max_steps):
    """Scalar reference walk of the embedded chain: step k draws double k
    of the path's stream; a row that is the identity at zero step cost
    stops the walk.  Returns (costs, truncated flags)."""
    choice = dtmdp.check_policy(policy)

    def stops(x):
        a = choice[x]
        return (bool(np.all(np.flatnonzero(dtmdp.kernel[x, a] > 0) == x))
                and dtmdp.step_cost[x, a] == 0.0)

    costs, truncated = [], []
    for i in range(n):
        draws = trajectory_stream(seed, i).random(max_steps)
        x, cost = x0, 0.0
        for k in range(max_steps):
            if stops(x):
                break
            row = dtmdp.kernel[x, choice[x]]
            targets = np.flatnonzero(row > 0)
            cum = np.cumsum(row[targets])
            idx = min(int(np.searchsorted(cum, draws[k] * cum[-1],
                                          side="right")), len(cum) - 1)
            cost += dtmdp.step_cost[x, choice[x]]
            x = int(targets[idx])
        costs.append(cost)
        truncated.append(not stops(x))
    return np.array(costs), np.array(truncated)


class TestPhilox:
    def test_doubles_match_numpy_across_blocks(self):
        pairs = list(itertools.product(KEYS, INDICES))
        keys, indices = (np.array(v, dtype=np.uint64) for v in zip(*pairs))
        draws = _uniforms(keys, indices, 0, 3)
        later = _uniforms(keys, indices, 2, 2)
        for row, (key, index) in enumerate(pairs):
            expected = trajectory_stream(key, index).random(16)
            assert np.array_equal(draws[row], expected[:12])
            assert np.array_equal(later[row], expected[8:])

    def test_raw_words_match_numpy(self):
        rng = np.random.default_rng(3)
        for key in list(KEYS) + [int(rng.integers(2 ** 63)) << 65 | 5]:
            for index in INDICES:
                c0 = int(rng.integers(2 ** 63))
                c1, c2 = (int(w) for w in rng.integers(2 ** 63, size=2))
                counter = c0 | c1 << 64 | c2 << 128 | index << 192
                expected = np.random.Philox(key=key, counter=counter) \
                    .random_raw(4)
                words = _philox(
                    tuple(np.array([w], np.uint64)
                          for w in (c0 + 1, c1, c2, index)),
                    (np.array([key & (2 ** 64 - 1)], np.uint64),
                     np.array([key >> 64], np.uint64)))
                assert [int(w[0]) for w in words] == expected.tolist()


class TestLockstepMatchesScalar:
    @pytest.mark.parametrize("make, x0, n, max_jumps", [
        (_birth_death, 3, 300, 64),
        (_birth_death, 5, 200, 7),
        (_costly_absorption, 0, 300, 64),
        (_birth_death, 2, 1, 64),
    ])
    def test_jump_estimate(self, make, x0, n, max_jumps):
        model = make()
        policy = only_policy(model)
        costs, infinite, truncated, _ = _paths(model, policy, x0, n, 41,
                                               max_jumps)
        assert estimate_value_mc(model, policy, x0, n, 41, max_jumps) == \
            _summarize(costs, infinite, truncated, 41)

    def test_reference_models_reach_every_ending(self):
        costs, infinite, truncated, _ = _paths(
            _birth_death(), only_policy(_birth_death()), 3, 300, 41, 64)
        assert 0 < truncated.sum() < 300
        costs, infinite, truncated, _ = _paths(
            _costly_absorption(), only_policy(_costly_absorption()), 0, 300,
            41, 64)
        assert 0 < infinite.sum() < 300 and np.all(costs > 0.0)

    @pytest.mark.parametrize("budget", [1, 7, 1 << 18])
    def test_several_start_states_and_chunkings(self, budget):
        model = _birth_death()
        policy = only_policy(model)
        starts, seeds, n = [0, 4, 1, 5], [9, 10, 2 ** 64 + 3, 12], 40
        costs, finals = _lockstep(_JumpTables(model, policy), starts, seeds,
                                  n, 64, budget)
        for s, (x0, seed) in enumerate(zip(starts, seeds)):
            ref_costs, _, _, ref_finals = _paths(model, policy, x0, n, seed,
                                                 64)
            assert np.array_equal(costs[s], ref_costs)
            assert np.array_equal(finals[s], ref_finals)

    @pytest.mark.parametrize("make, x0, n, max_steps", [
        (_birth_death, 3, 300, 64),
        (_birth_death, 5, 100, 9),
        (lambda: gen_example("pure_birth", {"N": 4, "kappa": 1.0}, 0), 0,
         200, 64),
        (_birth_death, 1, 1, 64),
    ])
    def test_chain_estimate(self, make, x0, n, max_steps):
        model = make()
        dtmdp = build_equivalent_dtmdp(model)
        policy = only_policy(model)
        costs, truncated = _chain_paths(dtmdp, policy, x0, n, 17, max_steps)
        assert estimate_dtmdp_value_mc(dtmdp, policy, x0, n, 17,
                                       max_steps) == \
            _summarize(costs, np.zeros(n, dtype=bool), truncated, 17)
