"""Dynamic programming for discrete-time models with multiplicative cost.

The one-step operator maps a value vector v >= 1 to

    (T v)(x) = min over admissible a of  sum_y kernel(x,a)[y] e^{l(x,a)} v(y)

with the convention that a zero-probability transition contributes nothing
even when v(y) is infinite.  The weights kernel(x,a)[y] e^{l(x,a)} are
computed once per model and read from DtmdpModel.step_weights.  Iterating
T from the constant 1 produces a monotone nondecreasing sequence; its
limit is the value of the model.

solve_ctmdp finishes by policy iteration (policy_iterate): a few sweeps
of value iteration give a first policy, and each step evaluates the
policy exactly (evaluate_policy_linear: one LU solve, certified by an
M-matrix test) and switches states to strictly better actions, or, where
none is better, decides the states left infinite by power steps
(_eigen_step).  It stops at the value of an optimal stationary policy,
which the paper shows exists.  value_iterate alone is plain value
iteration.

Value iteration and the power steps of _eigen_step show states infinite
by one test (_growth_bound) on a lazy iterate y, v + T v in value iteration:
a set on which the sweep of y, zeroed off the set, still exceeds y
beyond the rounding margin.  A lazy iterate grows on every sweep on a
class of any period.  Value iteration tests on sweeps 1, 2, 4, ...;
every sweep floors, checks monotonicity and measures the change over the
states still finite.  A state once infinite stays infinite under every
later sweep, so the iterate alone records which states are.

The module also provides residual checks against the original
continuous-time model, an iterative policy evaluator kept as an
independent cross-check, and a brute-force strategy-enumeration oracle for
small finite horizons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .model import CtmdpModel, ModelError, StationaryPolicy
from .reduction import DtmdpModel, build_equivalent_dtmdp

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
WARM_SWEEPS = 20  # value-iteration sweeps before the first policy is taken
IMPROVE_RTOL = 1e-12  # an action must beat the current one by this factor
ORACLE_BUDGET = 10 ** 7
ORACLE_MAX_HORIZON = 6
_EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    """Internal solver invariant violated (should not happen on valid input)."""


class OracleGuardError(ValueError):
    """The brute-force oracle would exceed its combinatorial budget."""


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Per-state values in [1, inf]; NaN and values below 1 are rejected."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # never the caller's array
        if np.any(np.isnan(vals)):
            raise ValueError("value function contains NaN")
        if np.any(vals < 1.0):
            x = int(np.argwhere(vals < 1.0)[0][0])
            raise ValueError(
                f"value {float(vals[x])} at state index {x} is below 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, x: int) -> float:
        return float(self.values[x])

    def __len__(self) -> int:
        return len(self.values)

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    @classmethod
    def constant(cls, n: int) -> "ValueFunction":
        """The constant 1 on n states, where value iteration starts."""
        return cls(np.ones(n))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: values, extracted policy, and convergence data.

    sup_residual is the supremum over finite-value states of the solved
    model's optimality-equation residual: the relative fixed-point gap
    |Tv - v|/v for a bare discrete-time solve, or the continuous-time
    residual when produced by solve_ctmdp, inf where that residual is not
    computable (its terms overflow).  infinite_states is read off value.
    """

    value: ValueFunction
    policy: StationaryPolicy
    iterations: int
    sup_residual: float
    converged: bool

    @property
    def infinite_states(self) -> frozenset:
        return frozenset(np.flatnonzero(~self.value.finite_mask).tolist())

    def to_dict(self, states, actions) -> dict:
        return {
            "values": dict(zip(states, self.value.values.tolist())),
            "policy": {states[x]: actions[a]
                       for x, a in enumerate(self.policy.choice)},
            "iterations": self.iterations,
            "sup_residual": float(self.sup_residual),
            "infinite_states": [states[x] for x in sorted(self.infinite_states)],
            "converged": self.converged,
        }


def _zero_infinite(flat: np.ndarray, v: np.ndarray):
    """The 0·inf = 0 convention for flat @ v, v a vector or a matrix: v
    with its infinite entries zeroed, and where flat @ v puts positive
    weight on one of them, where the product is +inf."""
    inf_mask = np.isinf(v)
    rows = inf_mask.reshape(len(v), -1).any(axis=1)  # rows of v with an inf
    return (np.where(inf_mask, 0.0, v),
            (flat[:, rows] > 0.0) @ inf_mask[rows])


def _masked_apply(flat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """flat @ v, flat a 2-D array of weights and v a vector or a matrix,
    with zero weights absorbing infinite values of v.  A product that
    overflows is inf, which is divergence: each caller enters
    np.errstate(over="ignore") once, not once per product."""
    if v.max() < np.inf:  # no entry is infinite (or NaN)
        return flat @ v
    safe, reaches = _zero_infinite(flat, v)
    out = flat @ safe
    out[reaches] = np.inf
    return out


def _operator_arrays(dtmdp: DtmdpModel):
    """The flat (n m, n) view of step_weights and the additive penalty, 0
    at admissible pairs and +inf elsewhere, from which the one-step
    operator is built once per solve.  vals + penalty is np.where(adm,
    vals, inf) bit for bit, as vals >= 0 is never NaN."""
    n, m = dtmdp.n_states, dtmdp.n_actions
    return (dtmdp.step_weights.reshape(n * m, n),
            np.where(dtmdp.admissible_mask, 0.0, np.inf))


def _action_values(dtmdp: DtmdpModel):
    """The map from v to the (n, m) array of sum_y W(x, a, y) v(y), +inf at
    inadmissible pairs: the one-step operator before its minimum."""
    n, m = dtmdp.n_states, dtmdp.n_actions
    flat, penalty = _operator_arrays(dtmdp)

    def values(v):
        return _masked_apply(flat, v).reshape(n, m) + penalty
    return values


def _argmin_admissible(vals: np.ndarray, adm_mask: np.ndarray):
    """Per-state minimum of vals, +inf at inadmissible pairs, and its
    lowest attaining admissible index."""
    best = vals.min(axis=1)
    attains = adm_mask & (vals == best[:, None])
    return best, np.argmax(attains, axis=1)


def bellman_apply(dtmdp: DtmdpModel, v: ValueFunction):
    """One application of the one-step operator with its argmin policy.

    Ties are broken by the lowest action index, so a state where every
    admissible action is infinite gets its lowest admissible one; the
    result is floored at the provable lower bound 1 so iterates stay in
    [1, inf] exactly.
    """
    with np.errstate(over="ignore"):
        vals = _action_values(dtmdp)(v.values)
    best, choice = _argmin_admissible(vals, dtmdp.admissible_mask)
    tv = np.maximum(best, 1.0)
    return ValueFunction(tv), StationaryPolicy(tuple(choice.tolist()))


def _non_monotone(v: np.ndarray, tv: np.ndarray) -> SolverError:
    x = int(np.argwhere(tv < v)[0][0])
    return SolverError(f"monotonicity violated at state index {x}: "
                       f"{float(v[x])!r} -> {float(tv[x])!r}")


def _growth_bound(b: np.ndarray) -> np.ndarray:
    """(1 + 2 (n + 1) eps) b, n = len(b): a > _growth_bound(b) is a > b
    beyond the rounding of products over n states.  This is the one growth
    certificate: where T_S y > _growth_bound(y), y > 0, on all of a set S,
    T_S the one-step operator on the columns of S, every policy's
    restricted matrix has spectral radius above 1 (Collatz-Wielandt), so
    no finite V >= 1 has V >= T_S V, and S is infinite."""
    return (1.0 + 2 * (len(b) + 1) * _EPS) * b


def _growing(operator, y: np.ndarray) -> np.ndarray:
    """The largest set S of states finite in y on which operator(y on S,
    0 off it) exceeds _growth_bound(y): S is infinite.  Each pass calls
    operator once and drops the states that fail.  y is the lazy iterate
    v + T v, which, as in _eigen_step's power steps, grows on every sweep
    on a class of any period, where v itself may grow on alternate sweeps
    only."""
    bound = _growth_bound(y)
    grow = np.isfinite(y)
    size = np.count_nonzero(grow)
    while size:
        grow &= operator(np.where(grow, y, 0.0)) > bound
        size, before = np.count_nonzero(grow), size
        if size == before:
            break
    return grow


def _iterate(sweep, n: int, tol: float, max_iters: int, operator):
    """Shared fixed-point loop: monotone sweeps, divergence, stopping.

    Returns (values, iterations, converged).  `sweep` maps the current
    vector to the next, not yet floored; `operator` is the same map on
    finite vectors, the only ones _growing passes it, and is passed apart
    so that the calls of `sweep` are the sweeps alone.  Every sweep
    floors at 1, checks monotonicity and takes the largest relative change
    over the states finite before it.  The loop stops once that change is
    under tol; until then, sweeps 1, 2, 4, 8, ... set the states that
    _growing finds on the lazy iterate v + T v to inf, and another sweep
    follows.  The loop carries v alone: a state infinite in v is infinite
    in every later sweep (a state set to inf by _growing keeps positive
    weight on inf under every admissible action, and an overflow stays one
    as the sweep is monotone), so its change is inf - inf = NaN, which
    np.fmax skips.  A sweep that broke this would fail the monotonicity
    check.
    """
    if not tol > 0.0:  # NaN fails every comparison
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    # the change inf - inf of a state already infinite is NaN, and a
    # sweep's products, the lazy iterate and its growth bound overflow near
    # the largest float: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.ones(n)
        for iterations in range(1, max_iters + 1):
            tv = np.maximum(sweep(v), 1.0)
            if (tv < v).any():
                raise _non_monotone(v, tv)
            change = np.fmax.reduce((tv - v) / v, initial=0.0)
            if change >= tol and iterations & (iterations - 1) == 0:
                tv[_growing(operator, v + tv)] = np.inf
            v = tv
            if change < tol:
                return v, iterations, True
    return v, iterations, False


def value_iterate(dtmdp: DtmdpModel, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SolveReport:
    """Iterate the one-step operator from the constant 1 until the
    relative change of the finite states is under tol.  A set of states on
    which the sweep of the lazy iterate v + T v, zeroed off the set, still
    exceeds it is infinite (_iterate tests on sweeps 1, 2, 4, ...), and so
    is an iterate that overflows; growth below tol per sweep stops as
    finite.  Exhausting max_iters gives converged=False rather than an
    exception.
    """
    n, m = dtmdp.n_states, dtmdp.n_actions
    flat, penalty = _operator_arrays(dtmdp)

    def sweep(v):
        return (_masked_apply(flat, v).reshape(n, m) + penalty).min(axis=1)

    def operator(y):  # y finite: no infinite entry to absorb
        return ((flat @ y).reshape(n, m) + penalty).min(axis=1)

    vals, iterations, converged = _iterate(sweep, n, tol, max_iters,
                                           operator)
    value = ValueFunction(vals)
    final, policy = bellman_apply(dtmdp, value)
    finite = value.finite_mask & final.finite_mask
    resid = float(np.max(np.abs(final.values[finite] - vals[finite])
                         / vals[finite])) if finite.any() else 0.0
    return SolveReport(value=value, policy=policy, iterations=iterations,
                       sup_residual=resid, converged=converged)


def evaluate_policy_iterative(dtmdp: DtmdpModel, policy: StationaryPolicy,
                              tol: float = DEFAULT_TOL,
                              max_iters: int = DEFAULT_MAX_ITERS) -> ValueFunction:
    """Fixed-policy value by iterating the one-step operator with the
    action fixed by the policy; same stopping and divergence test as
    value_iterate."""
    choice = dtmdp.check_policy(policy)
    rows = np.arange(dtmdp.n_states)
    weights = dtmdp.step_weights[rows, choice, :]

    def sweep(v):
        return _masked_apply(weights, v)

    def operator(y):  # y finite: no infinite entry to absorb
        return weights @ y

    vals, _, _ = _iterate(sweep, dtmdp.n_states, tol, max_iters, operator)
    return ValueFunction(vals)


def _policy_system(model, choice: np.ndarray):
    """The fixed-policy equations d(x) V(x) = sum over y != x of
    inflow(x, y) V(y); the sum of magnitudes each d(x) is the difference
    of, which bounds its rounding; and which states pay a positive cost.

    On the discrete-time model d = 1 - W(x, x) and inflow is W off the
    diagonal, W the policy's step weights.  On the continuous-time model
    d = total rate - cost rate and inflow = rates: at a jump pair of the
    reduction (c < q) these are its equations times q - c, at a pair
    with q = c = 0 both are 0 = 0, and at any other pair d <= 0 with
    nonnegative inflow, as the reduction's identity row at a positive
    cost has d = 1 - 2 < 0: no positive solution, the state is infinite.
    """
    rows = np.arange(model.n_states)
    if isinstance(model, CtmdpModel):
        total = model.total_rates[rows, choice]
        costs = model.costs[rows, choice]
        return (total - costs, total + costs, model.rates[rows, choice],
                costs > 0.0)
    inflow = model.step_weights[rows, choice]
    costly = model.step_cost[rows, choice] > 0.0
    stay = inflow[rows, rows].copy()
    inflow[rows, rows] = 0.0
    return 1.0 - stay, 1.0 + stay, inflow, costly


def _reaching(succ: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """The seed states and every state with a path of edges into them."""
    hit = seed.copy()
    while True:
        newly = ~hit & succ[:, hit].any(axis=1)
        if not newly.any():
            return hit
        hit |= newly


def _certified_solve(d, gross, off, b):
    """The solution of a x = b for a = diag(d) - off, or None unless a is
    certified to be a nonsingular M-matrix.

    off is nonnegative.  Such an a is a nonsingular M-matrix exactly when
    a u > 0 for some u > 0 (Berman and Plemmons, Nonnegative Matrices in
    the Mathematical Sciences, ch. 6); for a = I - W that is the spectral
    radius of W below 1.  So a u = 1 is solved too, and u > 0 is checked
    along with a u exceeding a bound on its rounding, in which each d is
    taken as uncertain in proportion to gross, the magnitudes it was
    computed from.  The two right-hand sides go to two calls: stacked in
    one call, the solution of a x = b can round differently in the last
    bit than it does alone.
    """
    a = np.diag(d) - off
    try:
        x = np.linalg.solve(a, b)
        u = np.linalg.solve(a, np.ones(len(b)))
    except np.linalg.LinAlgError:  # exactly singular
        return None
    bound = (len(b) + 1) * _EPS * (gross * u + off @ u)
    certified = u.min() > 0.0 and (a @ u - bound).min() > 0.0
    return x if certified and np.isfinite(x).all() else None


def _sink_classes_first(succ: np.ndarray) -> list:
    """Strongly connected classes of a boolean adjacency matrix, each an
    index array, every class after all classes it reaches.

    reach, the reflexive transitive closure, comes from repeated squaring;
    two states share a class when each reaches the other.  A class that
    reaches another reaches strictly more states, so sorting the classes
    by how many states they reach puts the sinks first.
    """
    reach = succ | np.eye(len(succ), dtype=bool)
    while True:
        paths = reach.astype(float)
        wider = paths @ paths > 0.0
        if np.array_equal(wider, reach):
            break
        reach = wider
    same = reach & reach.T
    # the lowest state of each class; np.unique would import numpy.ma
    heads = np.flatnonzero(np.argmax(same, axis=1) == np.arange(len(same)))
    heads = heads[np.argsort(reach[heads].sum(axis=1), kind="stable")]
    return [np.flatnonzero(same[h]) for h in heads]


def _solve_by_class(d, gross, inflow, vals, transient) -> None:
    """Value the transient states one strongly connected class at a time,
    sinks first, writing into vals.  A class whose inflow from the states
    already valued is infinite (an edge into an infinite state, or a sum
    that overflows), or whose block fails the certificate, is infinite,
    and so in turn is every class that reaches it."""
    t = np.flatnonzero(transient)
    vals[t] = 0.0  # not yet valued: no inflow from them
    for members in _sink_classes_first(inflow[np.ix_(t, t)] > 0.0):
        c = t[members]
        rows = inflow[c]
        with np.errstate(over="ignore"):
            into = _masked_apply(rows, vals)
        x = (_certified_solve(d[c], gross[c], rows[:, c], into)
             if np.isfinite(into).all() else None)
        vals[c] = np.inf if x is None else np.maximum(x, 1.0)


def evaluate_policy_linear(model, policy: StationaryPolicy) -> ValueFunction:
    """Exact fixed-policy value from one linear solve, certified.

    model is a DtmdpModel, or the CtmdpModel it was reduced from: both
    have the same value, and the continuous-time model gives its
    equations in generator form (see _policy_system).

    States that cannot reach a positive cost under the policy, every
    closed zero-cost class among them, have value exactly 1.  A state
    with no successor but itself at positive cost is infinite, and so is
    every state that reaches it.  One LU solve values all other states
    and certifies the result (_certified_solve).  Only if that
    certificate fails are the states split into strongly connected
    classes and certified one class at a time, sinks first; a class that
    fails is infinite, and so is every state that reaches it.

    A failed certificate is reported as infinite, also where the value is
    finite but beyond what double precision can certify: the rounding
    bound grows with u, which is about the expected number of steps, so a
    class that takes more than about 1e15 / n steps to leave fails
    whatever its cost.  solve_ctmdp then reports converged=False, as the
    power steps of _eigen_step cannot show such a state infinite either.
    """
    choice = model.check_policy(policy)
    d, gross, inflow, costly = _policy_system(model, choice)
    succ = inflow > 0.0
    unit = ~_reaching(succ, costly)
    infinite = _reaching(succ, costly & ~succ.any(axis=1))
    transient = ~unit & ~infinite
    vals = np.where(unit, 1.0, np.inf)
    if transient.any():
        t = np.flatnonzero(transient)
        x = _certified_solve(d[t], gross[t], inflow[np.ix_(t, t)],
                             inflow[t][:, unit].sum(axis=1))
        if x is None:
            _solve_by_class(d, gross, inflow, vals, transient)
        else:
            vals[t] = np.maximum(x, 1.0)
    return ValueFunction(vals)


def optimality_residual(model: CtmdpModel, v: ValueFunction) -> dict:
    """Continuous-time optimality-equation residual at finite-value states.

    residual(x) = min over admissible a of
        c(x,a) v(x) + sum_{y != x} rates(x,a,y) v(y) - total_rate(x,a) v(x),
    a signed real; an action with a positive rate into an infinite-value
    state contributes +inf to the minimum.  States with v(x) = inf are
    skipped.  A residual whose terms overflow is NaN: not computable.
    """
    n = model.n_states
    if len(v.values) != n:
        raise ModelError("value function length does not match model")
    flat = model.rates.reshape(-1, n)
    safe, reaches = _zero_infinite(flat, v.values)
    # one dot product per row, bit for bit what row @ safe gives; a single
    # flat @ safe can round differently in the last bit
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: inf - inf
        inflow = np.matmul(flat[:, None, :], safe[:, None]).reshape(n, -1)
        candidate = (model.costs * safe[:, None] + inflow
                     - model.total_rates * safe[:, None])
    best = np.where(model.admissible_mask & ~reaches.reshape(n, -1),
                    candidate, np.inf).min(axis=1)
    states = np.flatnonzero(v.finite_mask)
    return dict(zip(states.tolist(), best[states].tolist()))


def check_supersolution(model: CtmdpModel, u: ValueFunction,
                        solved: ValueFunction, tol: float = 1e-8) -> bool:
    """True iff u has nonnegative residual (within tol) at every finite-u
    state and dominates the solved value pointwise; a residual that is not
    computable (NaN) fails."""
    residuals = optimality_residual(model, u)
    if any(not r >= -tol for r in residuals.values()):
        return False
    return bool(np.all(u.values >= solved.values))


def finite_horizon_oracle(dtmdp: DtmdpModel, horizon: int) -> ValueFunction:
    """Optimal n-step value by exhaustive strategy enumeration.

    Enumerates every deterministic Markov strategy (one action table per
    step), computes each strategy's expected multiplicative cost exactly,
    and returns the pointwise minimum.  No minimum is ever interchanged
    with an expectation, so this is independent of the one-step recursion
    it is used to check.  Guarded: horizon <= 6 and
    n_actions ** (n_states * horizon) <= 10^7.

    The costs of a strategy's last k steps from every state form one
    column.  A table picks one action per state, so each step multiplies
    the columns by each action's weights once, and the column that
    prepends table t takes its row x from action t(x)'s product.  The
    products follow the one-step operator's conventions (_masked_apply):
    a zero weight times an infinite cost is 0, and a product that
    overflows is inf.
    """
    n, m = dtmdp.n_states, dtmdp.n_actions
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if horizon == 0:
        return ValueFunction.constant(n)
    if horizon > ORACLE_MAX_HORIZON or m ** (n * horizon) > ORACLE_BUDGET:
        raise OracleGuardError(
            f"{m}^({n}*{horizon}) strategy tables exceed the oracle budget")
    by_action = dtmdp.step_weights.transpose(1, 0, 2)
    # tables[x] holds state x's action in each table, state 0's varying
    # slowest; one step gathers nothing, and may admit 10^7 tables
    tables = (np.array(list(itertools.product(*dtmdp.admissible))).T
              if horizon > 1 else None)
    states = np.arange(n)[:, None]
    costs = np.ones((n, 1))
    with np.errstate(over="ignore"):
        for _ in range(horizon - 1):  # columns ordered table-major
            products = np.empty((m, *costs.shape))
            for a, mat in enumerate(by_action):
                products[a] = _masked_apply(mat, costs)
            costs = products[tables, states].reshape(n, -1)
        # one action's product at a time keeps the peak at two cost sets
        lows = np.array([_masked_apply(mat, costs).min(axis=1)
                         for mat in by_action])
    best = np.where(dtmdp.admissible_mask.T, lows, np.inf).min(axis=0)
    return ValueFunction(np.maximum(best, 1.0))


def _unit_actions(dtmdp: DtmdpModel):
    """The states of value exactly 1 and, per state, the lowest-index
    action that keeps them there.

    A state has value 1 exactly when some policy keeps it on zero-cost
    steps forever: the largest set of states each with an admissible
    zero-cost action whose successors all lie in the set.
    """
    zero = dtmdp.admissible_mask & (dtmdp.step_cost == 0.0)
    xs, acts = np.nonzero(zero)
    succ = dtmdp.kernel[xs, acts] > 0.0  # successors of the zero-cost pairs
    unit = np.ones(dtmdp.n_states, dtype=bool)
    while True:
        stays = np.zeros_like(zero)
        stays[xs, acts] = ~succ[:, ~unit].any(axis=1)
        kept = stays.any(axis=1)
        if (kept == unit).all():
            return unit, np.argmax(stays, axis=1)
        unit = kept


def _eigen_step(weights, adm, choice, stuck, z, budget):
    """Howard and Matheson's eigenvalue step on the stuck states, whose
    actions are all infinite at the value of the policy held.

    Per strongly connected class c, sinks first, without actions into the
    other stuck states (closed ones: c reaches no others), lazy power
    steps y <- y + T_c y, scaled to a largest entry of 1, run from the
    warm iterate z; T_c is the one-step operator on the columns of c.
    A step where T_c y exceeds _growth_bound(y) shows c infinite, as no
    finite V >= 1 has V >= T_c V (Nesterov and Protasov, SIAM J. Matrix
    Anal. Appl. 34(3), 2013), and the states whose greedy actions keep to
    states where y exceeds _growth_bound(T_c y) are finite under those
    actions.  Out of budget, or with no better bound in len(c) steps, c is
    left undecided.  Returns the states to switch and their actions;
    whether every class was shown infinite, which matters only when none
    switches; and the budget left.
    """
    certified, todo = True, [stuck]
    while todo:
        c = todo.pop()
        actions = np.arange(adm.shape[1])
        others = np.setdiff1d(stuck, c, assume_unique=True)  # no numpy.ma
        into_others = weights[np.ix_(c, actions, others)]
        allowed = adm[c] & ~(into_others > 0.0).any(axis=2)
        block = weights[np.ix_(c, actions, c)]
        classes = _sink_classes_first(
            ((block > 0.0) & allowed[:, :, None]).any(axis=1))
        if len(classes) > 1:
            todo += [c[k] for k in reversed(classes)]
            continue
        penalty = np.where(allowed, 0.0, np.inf)
        y = z[c] if np.isfinite(z[c]).all() else np.ones(len(c))
        low, high, idle, grew = 0.0, np.inf, 0, False
        while budget and idle < len(c) and not grew:
            budget -= 1
            y = y / y.max()
            ty, pick = _argmin_admissible(block @ y + penalty, allowed)
            grew = bool((ty > _growth_bound(y)).all())
            ratio = ty / y  # inf where no action is left
            idle = 0 if ratio.min() > low or ratio.max() < high else idle + 1
            low, high = max(low, ratio.min()), min(high, ratio.max())
            fine = ~_reaching(block[np.arange(len(c)), pick] > 0.0,
                              ~(y > _growth_bound(ty)))
            if (pick != choice[c])[fine].any():
                return c[fine], pick[fine], True, budget
            y = y + ty  # lazy, so that periodic classes converge too
        certified &= grew
    return [], [], certified, budget


def _policy_iterate(dtmdp: DtmdpModel, exact, max_iters: int) -> SolveReport:
    """policy_iterate, evaluating each policy on `exact`: dtmdp itself or
    the continuous-time model it was reduced from."""
    rows = np.arange(dtmdp.n_states)
    weights, adm = dtmdp.step_weights, dtmdp.admissible_mask
    values = _action_values(dtmdp)
    unit, unit_action = _unit_actions(dtmdp)
    vi = value_iterate(dtmdp, max_iters=min(WARM_SWEEPS, max_iters))
    budget = max_iters - vi.iterations
    # states of value 1 keep to zero-cost steps: otherwise improvement can
    # stop at a larger fixed point, where a zero-cost cycle ties with the
    # policy's own value and is never switched to
    choice = np.where(unit, unit_action, vi.policy.choice)
    certified = True
    while True:  # Howard's improvement, one evaluation per step
        if budget == 0:
            return replace(vi, converged=False)
        budget -= 1
        u = evaluate_policy_linear(
            exact, StationaryPolicy(tuple(choice.tolist()))).values
        with np.errstate(over="ignore"):
            after = values(u)
        best, lowest = _argmin_admissible(after, adm)
        switch = best < after[rows, choice] * (1.0 - IMPROVE_RTOL)
        if not switch.any() and np.isinf(u).any():
            moved, acts, certified, budget = _eigen_step(
                weights, adm, choice, np.flatnonzero(np.isinf(u)),
                vi.value.values, budget)
            switch[moved], lowest[moved] = True, acts
        if not switch.any():
            break
        choice = np.where(switch, lowest, choice)
    choice = np.where(np.isinf(u), np.argmax(adm, axis=1), choice)
    finite = np.isfinite(u)
    tu = np.maximum(best[finite], 1.0)
    resid = float(np.max(np.abs(tu - u[finite]) / u[finite])) \
        if finite.any() else 0.0
    return SolveReport(value=ValueFunction(u),
                       policy=StationaryPolicy(tuple(choice.tolist())),
                       iterations=vi.iterations, sup_residual=resid,
                       converged=certified)


def policy_iterate(dtmdp: DtmdpModel,
                   max_iters: int = DEFAULT_MAX_ITERS) -> SolveReport:
    """Warm-started policy iteration (Howard and Matheson, Management
    Science 18(7), 1972) with exact policy evaluation.

    At most WARM_SWEEPS sweeps of value_iterate, at its default tol, give
    the first policy, its lowest-index greedy one, except that states of
    value 1 take an action that keeps them on zero-cost steps (see
    _unit_actions).  Each step evaluates the policy with
    evaluate_policy_linear and switches a state to the lowest-index
    argmin of the one-step operator at that value, but only where it
    beats the current action by the factor 1 - IMPROVE_RTOL; an infinite
    value is beaten by any finite one.  If no state switches but some are
    infinite, _eigen_step shows them infinite or finds a finite policy to
    resume from.

    converged=True certifies each finite value by the evaluator's M-matrix
    test with no improving action, and each infinite one by a lowest
    power-step ratio above 1.  iterations counts the warm sweeps only:
    value iteration's sweeps until they converge, at most WARM_SWEEPS.
    max_iters bounds sweeps, improvement and power steps together.  Out of
    budget at an improvement step, the report holds the last
    value-iteration iterate; undecided classes, also for want of budget,
    read infinite; either way converged=False.
    """
    return _policy_iterate(dtmdp, dtmdp, max_iters)


def solve_ctmdp(model: CtmdpModel, max_iters: int = DEFAULT_MAX_ITERS):
    """Reduce, solve by policy iteration (policy_iterate), and attach the
    continuous-time optimality residual.  Returns (report, reduced model).
    A residual that is not computable (NaN, its terms overflow) makes the
    supremum inf.

    Each policy is evaluated on the continuous-time model, which keeps
    near-critical values exact (see _policy_system).
    """
    dtmdp = build_equivalent_dtmdp(model)
    report = _policy_iterate(dtmdp, model, max_iters)
    residuals = optimality_residual(model, report.value)
    sup = max((np.inf if np.isnan(r) else abs(r)
               for r in residuals.values()), default=0.0)
    return replace(report, sup_residual=float(sup)), dtmdp
