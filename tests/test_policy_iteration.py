"""Policy iteration, the default solve route, against exhaustive search over
stationary policies, and the exact evaluator it stands on."""

import hashlib
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from riskctmdp import cli, jsonio, solver
from riskctmdp.model import StationaryPolicy, gen_example, validate_model
from riskctmdp.reduction import build_equivalent_dtmdp, make_dtmdp
from riskctmdp.solver import (evaluate_policy_iterative,
                              evaluate_policy_linear, policy_iterate,
                              solve_ctmdp, value_iterate)
import exact
from conftest import only_policy, periodic_class, vi_solve

GOLDEN = Path(__file__).parent / "golden"
ORACLE_RTOL = 1e-9


def _seed_digest(items):
    return hashlib.sha256(",".join(str(item.seed) for item in items)
                          .encode()).hexdigest()


def test_corpus_seed_lists_are_pinned(monotone_corpus, oracle_corpus):
    """The corpora are screened by value iteration's sweep count; these
    digests of the accepted seeds were taken before solve moved to policy
    iteration."""
    assert (monotone_corpus[0].seed, monotone_corpus[-1].seed) == (10_000,
                                                                   10_224)
    assert _seed_digest(monotone_corpus) == (
        "3eebc99f1f27c19d8ebbae13718a8bff07ba73a0a956f4053ed28d80c51a875a")
    assert (oracle_corpus[0].seed, oracle_corpus[-1].seed) == (20_000, 20_053)
    assert _seed_digest(oracle_corpus) == (
        "e03efd4c0edf8dbd918d766178606d198a98709f8339cea5b47773bd34f634a8")


@pytest.mark.parametrize("name", ["near_critical", "divergent", "random_adm",
                                  "infinite"])
def test_vi_route_reproduces_the_solve_goldens(name):
    model = validate_model(jsonio.loads(
        (GOLDEN / f"{name}.model.json").read_text()))
    report, _ = vi_solve(model)
    text = jsonio.dumps(report.to_dict(model.states, model.actions))
    assert text == (GOLDEN / f"{name}.solve.json").read_text(encoding="utf-8")


def stationary_oracle(dtmdp):
    """Pointwise minimum of the exact values of every deterministic
    stationary policy: the optimal value, infinite states included."""
    best = np.full(dtmdp.n_states, np.inf)
    for choice in itertools.product(*dtmdp.admissible):
        value = evaluate_policy_linear(dtmdp, StationaryPolicy(choice))
        best = np.minimum(best, value.values)
    return best


def _n_policies(dtmdp):
    return math.prod(len(acts) for acts in dtmdp.admissible)


def assert_matches_oracle(report, dtmdp):
    want = stationary_oracle(dtmdp)
    got = report.value.values
    assert report.converged
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite])
                  <= ORACLE_RTOL * want[finite])
    # the reported policy attains the reported value
    attained = evaluate_policy_linear(dtmdp, report.policy).values
    assert np.array_equal(np.isinf(attained), np.isinf(want))
    assert np.all(np.abs(attained[finite] - want[finite])
                  <= ORACLE_RTOL * want[finite])


def test_policy_iteration_matches_the_stationary_oracle_on_the_corpora(
        monotone_corpus, oracle_corpus):
    small = [item for item in monotone_corpus
             if _n_policies(item.dtmdp) <= 300][:25]
    assert len(small) == 25
    for item in small + list(oracle_corpus):
        report, _ = solve_ctmdp(item.model)
        assert_matches_oracle(report, item.dtmdp)


def _chain(levels, cost):
    """s0 -> s1 -> ... -> s<levels> at rate 1 and the given cost rate; the
    last state absorbs at zero cost.  V(s0) = (1 / (1 - cost)) ** levels."""
    states = [f"s{i}" for i in range(levels + 1)]
    return validate_model({
        "states": states, "actions": ["a0"],
        "rates": [{"from": a, "action": "a0", "to": b, "rate": 1.0}
                  for a, b in zip(states, states[1:])],
        "costs": [{"state": s, "action": "a0", "rate": cost}
                  for s in states[:-1]]})


def test_values_above_the_cap_are_finite(tmp_path, capsys):
    """A 16-state chain at cost rate 0.9: V(s0) = 1e15 is above the 1e12
    that value iteration's old cap heuristic took for divergence, pinning
    s0-s2.  The ratio test never pins a finite state."""
    model = _chain(15, 0.9)
    report, dtmdp = solve_ctmdp(model)
    assert report.converged and not report.infinite_states
    assert report.value[0] == pytest.approx(1e15, rel=1e-12)
    assert_matches_oracle(report, dtmdp)
    vi = value_iterate(dtmdp)
    assert vi.converged
    for values in (vi.value, evaluate_policy_iterative(dtmdp, report.policy)):
        assert values.finite_mask.all()
        assert values[0] == pytest.approx(1e15, rel=1e-8)
    path, solved = tmp_path / "chain.json", tmp_path / "solve.json"
    path.write_text(jsonio.dumps(model.to_dict()))
    assert cli.main(["solve", str(path), "--out", str(solved)]) == 0
    out = jsonio.loads(solved.read_text())
    assert out["infinite_states"] == [] and out["converged"] is True
    assert cli.main(["evaluate", str(path), "--policy", str(solved)]) == 0
    out = jsonio.loads(capsys.readouterr().out)
    assert out["same_infinite_classification"] is True


@pytest.mark.parametrize("c", [1.001, 1 + 1e-6, 1 + 1e-10])
def test_value_iteration_shows_barely_divergent_states_infinite(c):
    """two_state q=1 just above criticality: work's iterate grows by about
    c - 1 a sweep, which the old cap took 41 464 sweeps to pin at
    c = 1.001 and never pinned at 1 + 1e-6 or 1 + 1e-10, ending finite
    with converged false after all 100 000 sweeps."""
    model = gen_example("two_state", {"q": 1, "c": c}, 0)
    report = value_iterate(build_equivalent_dtmdp(model))
    assert report.converged and report.iterations <= 4
    assert report.infinite_states == {model.state_index("work")}


def _cycle(cost):
    return validate_model({
        "states": ["p", "q"], "actions": ["u"],
        "rates": [{"from": "p", "action": "u", "to": "q", "rate": 1.0},
                  {"from": "q", "action": "u", "to": "p", "rate": 1.0}],
        "costs": [{"state": s, "action": "u", "rate": cost}
                  for s in ("p", "q") if cost]})


def test_zero_cost_cycle_is_exactly_one():
    model = _cycle(0.0)
    report, dtmdp = solve_ctmdp(model)
    assert report.value.values.tolist() == [1.0, 1.0]
    assert_matches_oracle(report, dtmdp)
    value = evaluate_policy_linear(dtmdp, only_policy(model))
    assert value.values.tolist() == [1.0, 1.0]


def test_costly_cycle_is_infinite():
    report, dtmdp = solve_ctmdp(_cycle(0.9))
    assert report.infinite_states == frozenset({0, 1})
    assert_matches_oracle(report, dtmdp)


def test_warm_start_avoids_the_first_action_stall():
    """random n=64 m=8 seed 2: the first-action policy leaves 61 states
    infinite.  Improvement from it stops after one switch with the 61
    still infinite: each of them has infinite successors under every
    action.  Value iteration finds every value finite."""
    dtmdp = build_equivalent_dtmdp(gen_example("random", {"n": 64, "m": 8},
                                               2))
    first = StationaryPolicy(tuple(int(np.argmax(row))
                                   for row in dtmdp.admissible_mask))
    assert (~evaluate_policy_linear(dtmdp, first).finite_mask).sum() == 61
    report = policy_iterate(dtmdp)
    vi = value_iterate(dtmdp, tol=1e-13)
    assert report.converged and not report.infinite_states
    assert vi.converged and not vi.infinite_states
    # value iteration rises to the optimal value from below
    assert np.all(report.value.values >= vi.value.values * (1 - 1e-12))
    assert np.all(report.value.values <= vi.value.values * (1 + 1e-8))


def test_zero_cost_cycle_beyond_the_warm_start():
    """x and y can cycle at zero cost (value 1) or each take a zero-cost
    path that meets a cost only after more than WARM_SWEEPS steps, so the
    warm-start iterate is 1 on every action.  Started on those paths,
    improvement would stop above 1: the cycle only ties with the value it
    leads back to."""
    length = solver.WARM_SWEEPS + 5
    chains = [[f"{tag}{i}" for i in range(length)] for tag in ("v", "w")]
    states = ["end", "x", "y", *chains[0], *chains[1]]
    rates = []
    for chain in chains:
        rates += [{"from": a, "action": "a0", "to": b, "rate": 1.0}
                  for a, b in zip(chain, chain[1:])]
        rates.append({"from": chain[-1], "action": "a0", "to": "end",
                      "rate": 1.0})
    rates += [{"from": "x", "action": "a0", "to": "v0", "rate": 1.0},
              {"from": "x", "action": "a1", "to": "y", "rate": 1.0},
              {"from": "y", "action": "a0", "to": "w0", "rate": 1.0},
              {"from": "y", "action": "a1", "to": "x", "rate": 1.0}]
    costs = [{"state": "v" + str(length - 1), "action": "a0", "rate": 0.5},
             {"state": "w" + str(length - 1), "action": "a0", "rate": 0.75}]
    admissible = {s: ["a0"] for s in states}
    admissible.update(x=["a0", "a1"], y=["a0", "a1"])
    model = validate_model({"states": states, "actions": ["a0", "a1"],
                            "admissible": admissible, "rates": rates,
                            "costs": costs})
    report, dtmdp = solve_ctmdp(model)
    assert report.value[1] == report.value[2] == 1.0
    assert report.policy.choice[1:3] == (1, 1)
    assert_matches_oracle(report, dtmdp)


def _reference_unit_actions(dtmdp):
    """solver._unit_actions as it was before it worked on the zero-cost
    pairs alone: each pass gathers the whole kernel's columns outside the
    set."""
    zero = dtmdp.admissible_mask & ~((dtmdp.kernel > 0.0)
                                     & (dtmdp.log_cost > 0.0)).any(axis=2)
    unit = np.ones(dtmdp.n_states, dtype=bool)
    while True:
        stays = zero & ~(dtmdp.kernel[:, :, ~unit] > 0.0).any(axis=2)
        kept = stays.any(axis=1)
        if (kept == unit).all():
            return unit, np.argmax(stays, axis=1)
        unit = kept


def _sparse_dtmdp(rng):
    """A random model of 2-12 states and 1-4 actions: each pair steps to
    1-3 successors, each pair's steps free with probability 0.6, and each
    state admits a random nonempty set of actions.  The free steps make
    zero-cost cycles and chains into costly ones; inadmissible pairs may
    be free self-loops, which must not count."""
    n, m = int(rng.integers(2, 13)), int(rng.integers(1, 5))
    kernel = np.zeros((n, m, n))
    for x, a in itertools.product(range(n), range(m)):
        succ = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)),
                          replace=False)
        kernel[x, a, succ] = rng.dirichlet(np.ones(len(succ)))
    log_cost = np.where(rng.random((n, m)) < 0.6, 0.0, rng.random((n, m)))
    admissible = [sorted(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                    replace=False).tolist())
                  for _ in range(n)]
    return make_dtmdp([f"s{i}" for i in range(n)],
                      [f"a{j}" for j in range(m)], kernel, log_cost,
                      admissible=admissible)


def test_unit_actions_match_the_whole_kernel_fixed_point():
    rng = np.random.default_rng(2024)
    mixed = 0
    for _ in range(500):
        dtmdp = _sparse_dtmdp(rng)
        unit, actions = solver._unit_actions(dtmdp)
        want_unit, want_actions = _reference_unit_actions(dtmdp)
        assert np.array_equal(unit, want_unit)
        assert np.array_equal(actions, want_actions)
        mixed += bool(0 < unit.sum() < dtmdp.n_states)
    assert mixed > 100  # the corpus exercises both kinds of state


def test_classes_are_certified_sinks_first():
    """The global certificate fails on a costly cycle c <-> d; the
    classes around it are valued one at a time: f feeds only finite
    states, e also feeds the cycle."""
    kernel = np.zeros((6, 1, 6))
    log_cost = np.full((6, 1), math.log(1.5))
    log_cost[0] = 0.0
    kernel[0, 0, 0] = 1.0                       # a: absorbing, value 1
    kernel[1, 0, [0, 1]] = [0.5, 0.5]           # b -> a: value 3
    kernel[2, 0, [2, 3]] = [0.5, 0.5]           # c <-> d: radius 1.5
    kernel[3, 0, [2, 3]] = [0.5, 0.5]
    kernel[4, 0, [1, 2]] = [0.5, 0.5]           # e -> b and c
    kernel[5, 0, [1, 5]] = [0.5, 0.5]           # f -> b
    dtmdp = make_dtmdp(list("abcdef"), ["u"], kernel, log_cost)
    policy = only_policy(dtmdp)
    linear = evaluate_policy_linear(dtmdp, policy)
    iterative = evaluate_policy_iterative(dtmdp, policy, tol=1e-13)
    assert np.isinf(linear.values).tolist() == [False, False, True, True,
                                                True, False]
    assert linear.values[1] == pytest.approx(3.0, rel=1e-15)
    assert linear.values[5] == pytest.approx(9.0, rel=1e-15)
    assert np.array_equal(linear.finite_mask, iterative.finite_mask)


def test_uncertifiable_finite_class_is_reported_infinite():
    """x <-> y at rate 1, leaving to `end` at rate 1e-16, cost rate 1e-19
    at x: the value is about 1.001, but the class takes about 1e16 steps
    to leave, so its certificate fails and the evaluator reports it
    infinite, as documented.  Value iteration finds it finite, so solve
    says it has not converged."""
    leak = 1e-16
    model = validate_model({
        "states": ["x", "y", "end"], "actions": ["a"],
        "rates": [{"from": "x", "action": "a", "to": "y", "rate": 1.0},
                  {"from": "y", "action": "a", "to": "x", "rate": 1.0},
                  {"from": "y", "action": "a", "to": "end", "rate": leak}],
        "costs": [{"state": "x", "action": "a", "rate": leak * 1e-3}]})
    value = evaluate_policy_linear(model, only_policy(model))
    assert value.values.tolist() == [math.inf, math.inf, 1.0]
    report, _ = solve_ctmdp(model)
    assert not report.converged
    assert report.infinite_states == {0, 1}


def test_linear_evaluation_never_iterates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_policy_iterative was called")
    monkeypatch.setattr(solver, "evaluate_policy_iterative", refuse)
    infinite = validate_model(jsonio.loads(
        (GOLDEN / "infinite.model.json").read_text()))
    for model in (infinite, _cycle(0.0), _cycle(0.9), _chain(15, 0.9)):
        dtmdp = build_equivalent_dtmdp(model)
        policy = solve_ctmdp(model)[0].policy
        for form in (dtmdp, model):
            evaluate_policy_linear(form, policy)


@pytest.mark.parametrize("max_iters, converged", [
    (2, False), (solver.WARM_SWEEPS, False), (solver.WARM_SWEEPS + 1, True)])
def test_max_iters_bounds_sweeps_and_steps(max_iters, converged):
    """two_state q=1 c=0.999 needs the warm-start sweeps and one step."""
    model = gen_example("two_state", {"q": 1, "c": 0.999}, 0)
    report, dtmdp = solve_ctmdp(model, max_iters=max_iters)
    assert report.converged is converged
    assert report.iterations == min(max_iters, solver.WARM_SWEEPS)
    if not converged:
        vi = value_iterate(dtmdp, max_iters=max_iters)
        assert report.value.values.tobytes() == vi.value.values.tobytes()


def _stall(n, seed):
    """gen random n m=2 cost_scale=0.95: improvement from the warm policy
    stalls with states infinite under every action, though all are
    finite."""
    return gen_example("random", {"n": n, "m": 2, "cost_scale": 0.95}, seed)


# value iteration took 572, 1 302 and 15 711 sweeps to find these finite
STALLS = [(6, 18), (8, 44), (12, 30)]


@pytest.mark.parametrize("n, seed", STALLS)
def test_a_stall_resumes_from_the_power_steps(monkeypatch, n, seed):
    calls = []
    step = solver._eigen_step
    monkeypatch.setattr(solver, "_eigen_step",
                        lambda *args: calls.append(1) or step(*args))
    report, _ = solve_ctmdp(_stall(n, seed))
    assert calls
    assert report.iterations == solver.WARM_SWEEPS
    assert report.converged and not report.infinite_states


def test_solve_runs_value_iteration_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return value_iterate(*args, **kwargs)
    monkeypatch.setattr(solver, "value_iterate", counting)
    goldens = [validate_model(jsonio.loads(
        (GOLDEN / f"{name}.model.json").read_text()))
        for name in ("infinite", "divergent")]
    for model in [_stall(n, seed) for n, seed in STALLS] + goldens + [
            _cycle(0.9)]:
        calls.clear()
        solve_ctmdp(model)
        assert len(calls) == 1


def test_power_steps_draw_on_max_iters():
    report, _ = solve_ctmdp(_stall(12, 30), max_iters=solver.WARM_SWEEPS + 2)
    assert not report.converged
    assert report.iterations == solver.WARM_SWEEPS


def _escape_or_trap(growth):
    """x steps to y (action a) or stays at a cost with a way out (b,
    value 99); y stays at a cost, its value growing by `growth` a step,
    and returns to x.  x and y form one class, y is infinite and x is
    not.  y grows too slowly for the warm sweeps to show it, so the warm
    policy sends x to y and improvement stalls with both infinite."""
    kernel = np.zeros((3, 2, 3))
    log_cost = np.zeros((3, 2))
    kernel[0, 0, 1] = 1.0
    kernel[0, 1, [0, 2]] = 0.5
    log_cost[0, 1] = math.log(1.98)
    kernel[1, 0, [0, 1]] = [0.01, 0.99]
    log_cost[1, 0] = math.log(growth / 0.99)
    kernel[2, 0, 2] = 1.0
    return make_dtmdp(["x", "y", "end"], ["a", "b"], kernel, log_cost,
                      admissible=[[0, 1], [0], [0]])


@pytest.mark.parametrize("growth", [1.001, 1.0001])
def test_finite_states_inside_an_infinite_class(growth):
    """Value iteration found x finite after 21 115 sweeps at growth 1.001
    and ran out of sweeps at 1.0001."""
    report = policy_iterate(_escape_or_trap(growth))
    assert report.converged and report.iterations == solver.WARM_SWEEPS
    assert report.value.values.tolist() == [pytest.approx(99.0), math.inf,
                                            1.0]
    assert report.policy.choice == (1, 0, 0)


def test_states_with_every_action_into_a_shown_class_are_infinite():
    """t is a costly trap; both actions of x reach it, and y reaches x."""
    kernel = np.zeros((4, 2, 4))
    log_cost = np.zeros((4, 2))
    kernel[0, 0, 0] = 1.0
    log_cost[0, 0] = math.log(1.5)
    kernel[1, 0, [0, 2]] = 0.5
    kernel[1, 1, [0, 1]] = [0.1, 0.9]
    kernel[2, 0, [1, 3]] = 0.5
    kernel[3, 0, 3] = 1.0
    dtmdp = make_dtmdp(["t", "x", "y", "end"], ["a", "b"], kernel, log_cost,
                       admissible=[[0], [0, 1], [0], [0]])
    report = policy_iterate(dtmdp)
    assert report.converged and report.infinite_states == {0, 1, 2}


def test_a_periodic_class_is_shown_infinite():
    """On the period-2 class {x, y} the ratios of plain power steps
    y <- T y / max(T y) swing between the same two pairs for ever.  When
    value iteration tested growth on the plain iterate, it found the class
    infinite only when the iterate overflowed, after 71 687 sweeps; on the
    lazy iterate the warm run shows it on the first sweep and stops after
    the second."""
    report = policy_iterate(periodic_class())
    assert report.converged and report.infinite_states == {1, 2}
    assert report.iterations == 2


@pytest.mark.parametrize("n, cost_scale, seed", [
    (6, 0.95, 18), (8, 0.95, 44),                 # stalls
    (6, 0.99, 377), (7, 0.9, 127), (6, 0.8, 85),  # with infinite states
    (6, 0.95, 146)])
def test_solve_matches_the_exact_optimum(n, cost_scale, seed):
    """Against the minimum over all 2^n stationary policies of their
    values in exact rational arithmetic (tests/exact.py)."""
    model = gen_example("random", {"n": n, "m": 2, "cost_scale": cost_scale},
                        seed)
    want = exact.optimal_value(model)
    report, _ = solve_ctmdp(model)
    assert report.converged
    assert report.infinite_states == {x for x, v in enumerate(want)
                                      if v == math.inf}
    eps = Fraction(np.finfo(float).eps)
    for x in set(range(n)) - report.infinite_states:
        assert abs(Fraction(report.value[x]) - want[x]) <= 4 * eps * want[x]


def _assert_within_n_plus_1_eps(values, want):
    """Every finite exact value matched within (n + 1) eps relative, n the
    number of states, and every infinite one read infinite."""
    bound = (len(want) + 1) * Fraction(np.finfo(float).eps)
    for got, exact_value in zip(values.tolist(), want):
        if exact_value == math.inf:
            assert got == math.inf
        else:
            assert abs(Fraction(got) - exact_value) <= bound * exact_value


def _assert_passes_the_per_action_check(model):
    """Without enumerating policies: the reported policy's exact value
    matches solve within (n + 1) eps, infinite set included, no action
    beats the reported one by more than policy iteration's switching
    threshold (exact.assert_optimal_actions), and the infinite set passes
    the exact check, as do value iteration's and the iterative
    evaluator's, which are the same.  Returns the infinite set."""
    report, dtmdp = solve_ctmdp(model)
    assert report.converged
    want = exact.assert_optimal_actions(model, report.policy.choice,
                                        solver.IMPROVE_RTOL)
    assert report.infinite_states == {x for x, v in enumerate(want)
                                      if v == math.inf}
    _assert_within_n_plus_1_eps(report.value.values, want)
    _assert_every_route_proves_infinite(model, report, dtmdp)
    return report.infinite_states


def _assert_every_route_proves_infinite(model, report, dtmdp):
    """value_iterate and evaluate_policy_iterative find solve's infinite
    set, and it passes exact.assert_infinite_set, for every policy and for
    the reported one."""
    vi = value_iterate(dtmdp)
    assert vi.converged and vi.infinite_states == report.infinite_states
    values = evaluate_policy_iterative(dtmdp, report.policy)
    assert np.array_equal(values.finite_mask, report.value.finite_mask)
    exact.assert_infinite_set(model, report.infinite_states)
    exact.assert_infinite_set(model, report.infinite_states,
                              choice=report.policy.choice)


@pytest.mark.parametrize("params, seed", [
    *(pytest.param({"n": 8, "m": 2}, seed, id=f"n=8-{seed}")
      for seed in range(30)),
    *(pytest.param({"n": 6, "m": 2, "cost_scale": 0.99}, seed,
                   id=f"n=6-cost_scale=0.99-{seed}") for seed in range(40))])
def test_solve_passes_the_exact_per_action_check(params, seed):
    """Over 30 seeds of random n=8 m=2 the largest error measured was
    4.94 eps, above the 4 eps of test_solve_matches_the_exact_optimum."""
    _assert_passes_the_per_action_check(gen_example("random", params, seed))


@pytest.mark.parametrize("kind, params, seed, infinite", [
    pytest.param("birth_death",
                 {"levels": 6, "birth": 3, "death": 1, "cost": 1}, 0, 6,
                 id="birth_death-levels=6"),
    # the first seeds of random n=6 m=2 cost_scale=0.99 with infinite states
    *(pytest.param("random", {"n": 6, "m": 2, "cost_scale": 0.99}, seed, 4,
                   id=f"random-n=6-cost_scale=0.99-{seed}")
      for seed in (57, 85))])
def test_divergent_models_pass_the_exact_per_action_check(kind, params, seed,
                                                          infinite):
    model = gen_example(kind, params, seed)
    assert len(_assert_passes_the_per_action_check(model)) == infinite


@pytest.mark.parametrize("model", [
    *(pytest.param(gen_example("random", {"n": 16, "m": 3}, seed),
                   id=f"random-n=16-m=3-{seed}") for seed in range(6)),
    *(pytest.param(gen_example("random", {"n": 24, "m": 4}, seed),
                   id=f"random-n=24-m=4-{seed}") for seed in range(3)),
    *(pytest.param(_stall(n, seed), id=f"stall-n={n}-{seed}")
      for n, seed in ((16, 0), (16, 1), (24, 0)))])
def test_models_beyond_enumeration_pass_the_exact_per_action_check(model):
    """3^16 to 4^24 stationary policies, far beyond exact.optimal_value's
    enumeration.  The largest error measured was 6.3 eps, on the stalls."""
    _assert_passes_the_per_action_check(model)


def test_a_long_stall_is_certified_but_beyond_n_plus_1_eps():
    """_stall(12, 30) passes every part of the per-action check except the
    (n + 1) eps bound: each finite value but the absorbing state's (exactly
    1) is 53-58 eps above the reported policy's exact value, though solve
    reports converged.  The certificate proves the values finite, not
    accurate to (n + 1) eps: the rounding of the linear solve grows with
    the expected number of steps, up to about 4 400 reduced steps here
    against at most 700 on the other stalls (value iteration takes about
    15 700 sweeps)."""
    model = _stall(12, 30)
    report, _ = solve_ctmdp(model)
    assert report.converged and not report.infinite_states
    want = exact.assert_optimal_actions(model, report.policy.choice,
                                        solver.IMPROVE_RTOL)
    eps = Fraction(np.finfo(float).eps)
    errors = [(Fraction(got) - value) / value / eps
              for got, value in zip(report.value.values.tolist(), want)]
    assert errors[0] == 0
    assert all(53 <= error <= 58 for error in errors[1:])


def _golden_model(name):
    return validate_model(jsonio.loads(
        (GOLDEN / f"{name}.model.json").read_text()))


@pytest.mark.parametrize("model", [
    *(pytest.param(gen_example("birth_death", {"levels": levels, "birth": 3,
                                               "death": 1, "cost": 1}, 0),
                   id=f"birth_death-levels={levels}") for levels in (6, 63)),
    *(pytest.param(_golden_model(name), id=name)
      for name in ("divergent", "infinite")),
    *(pytest.param(gen_example("two_state", {"q": 1, "c": c}, 0),
                   id=f"two_state-c={c!r}") for c in (1.001, 1 + 1e-6,
                                                      1 + 1e-10))])
def test_infinite_sets_pass_the_exact_check(model):
    """Divergent models too large or too close to criticality for
    exact.optimal_value's enumeration or assert_optimal_actions."""
    report, dtmdp = solve_ctmdp(model)
    assert report.converged and report.infinite_states
    _assert_every_route_proves_infinite(model, report, dtmdp)


@pytest.mark.parametrize("model", [
    *(pytest.param(gen_example("two_state", {"q": 1, "c": 1 - 10.0 ** -k},
                               0), id=f"two_state-c=1-1e-{k}")
      for k in range(8, 16)),
    pytest.param(_chain(15, 0.9), id="chain-1e15"),
])
def test_near_critical_values_match_the_exact_ones(model):
    """Solve and the continuous-time linear evaluator against exact
    rational values, near criticality and far above 1e12.  Measured
    errors were at most 0.35 eps on two_state and 0.73 eps on the chain."""
    want = exact.optimal_value(model)
    report, _ = solve_ctmdp(model)
    assert report.converged
    _assert_within_n_plus_1_eps(report.value.values, want)
    policy = only_policy(model)
    _assert_within_n_plus_1_eps(evaluate_policy_linear(model, policy).values,
                                exact.policy_value(model, policy.choice))


def test_criticality_within_one_ulp_is_not_certified():
    """two_state q=1 at c = 1 - 2^-53, the float just below 1: the exact
    value 2^53 is finite, but the work state takes about 9e15 steps to
    leave, beyond the about 1e15 / n that the evaluator's rounding bound
    can certify (README, "Numerical behavior"); solve reports the state
    infinite and says it has not converged."""
    model = gen_example("two_state", {"q": 1, "c": 1 - 2.0 ** -53}, 0)
    assert exact.optimal_value(model) == [1, 2 ** 53]
    report, _ = solve_ctmdp(model)
    assert not report.converged
    assert report.infinite_states == {1}
    assert report.value.values.tolist() == [1.0, math.inf]
