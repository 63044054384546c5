"""Dynamic programming for discrete-time models with multiplicative cost.

The one-step operator maps a value vector v >= 1 to

    (T v)(x) = min over admissible a of  sum_y kernel(x,a)[y] e^{l(x,a,y)} v(y)

with the convention that a zero-probability transition contributes nothing
even when v(y) is infinite.  The weights kernel(x,a)[y] e^{l(x,a,y)} are
computed once per model and read from DtmdpModel.step_weights.  Iterating T from the constant 1 produces a
monotone nondecreasing sequence; its limit is the value of the model, and
the per-state argmin of T at the limit is an optimal stationary policy.
Divergence to infinity is detected by a cap heuristic: a state whose
iterate exceeds the cap and keeps growing for a fixed number of sweeps is
classified infinite and pinned there.  That bookkeeping starts only once
an iterate passes the cap or is infinite; before that no state can be
pending or pinned, so a sweep just floors, checks monotonicity and
measures the change, and the classification is the same as if it ran on
every sweep.

Alongside the iteration the module provides a direct linear-system policy
evaluator, residual checks against the original continuous-time model, and
a brute-force strategy-enumeration oracle for small finite horizons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .model import CtmdpModel, ModelError, StationaryPolicy
from .reduction import DtmdpModel, build_equivalent_dtmdp

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
DEFAULT_CAP = 1e12
DIVERGENCE_SWEEPS = 10  # consecutive growing sweeps above cap before pinning
ORACLE_BUDGET = 10 ** 7
ORACLE_MAX_HORIZON = 6


class SolverError(RuntimeError):
    """Internal solver invariant violated (should not happen on valid input)."""


class OracleGuardError(ValueError):
    """The brute-force oracle would exceed its combinatorial budget."""


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """Per-state values in [1, inf]; NaN and values below 1 are rejected."""

    values: np.ndarray
    diagnostics: dict = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
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

    def to_json_values(self) -> list:
        return [v if np.isfinite(v) else "inf" for v in self.values.tolist()]

    @classmethod
    def constant(cls, n: int, value: float = 1.0) -> "ValueFunction":
        return cls(np.full(n, value))


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: values, extracted policy, and convergence data.

    sup_residual is the supremum over finite-value states of the solved
    model's optimality-equation residual: the relative fixed-point gap
    |Tv - v|/v for a bare discrete-time solve, or the continuous-time
    residual when produced by solve_ctmdp.
    """

    value: ValueFunction
    policy: StationaryPolicy
    iterations: int
    sup_residual: float
    infinite_states: frozenset
    converged: bool

    def to_dict(self, states, actions) -> dict:
        vals = self.value.to_json_values()
        return {
            "values": {states[x]: vals[x] for x in range(len(states))},
            "policy": {states[x]: actions[a]
                       for x, a in enumerate(self.policy.choice)},
            "iterations": self.iterations,
            "sup_residual": float(self.sup_residual),
            "infinite_states": [states[x] for x in sorted(self.infinite_states)],
            "converged": self.converged,
        }


def _masked_apply(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """weights @ v with zero weights absorbing infinite values of v."""
    flat = weights.reshape(-1, weights.shape[-1])
    if v.max() < np.inf:  # no entry is infinite (or NaN)
        out = flat @ v
    else:
        inf_mask = np.isinf(v)
        out = flat @ np.where(inf_mask, 0.0, v)
        reaches = (flat[:, inf_mask] > 0).any(axis=1)
        out[reaches] = np.inf
    return out.reshape(weights.shape[:-1])


def _argmin_admissible(vals: np.ndarray, adm_mask: np.ndarray):
    """Per-state minimum over admissible actions and its lowest attaining index."""
    vals = np.where(adm_mask, vals, np.inf)
    best = vals.min(axis=1)
    attains = adm_mask & (vals == best[:, None])
    return best, np.argmax(attains, axis=1)


def bellman_apply(dtmdp: DtmdpModel, v: ValueFunction):
    """One application of the one-step operator with its argmin policy.

    Ties are broken by the lowest action index; the result is floored at
    the provable lower bound 1 so iterates stay in [1, inf] exactly.
    """
    vals = _masked_apply(dtmdp.step_weights, v.values)
    best, choice = _argmin_admissible(vals, dtmdp.admissible_mask)
    tv = np.maximum(best, 1.0)
    return ValueFunction(tv), StationaryPolicy(tuple(int(a) for a in choice))


def extract_policy(dtmdp: DtmdpModel, v: ValueFunction) -> StationaryPolicy:
    """Lowest-index argmin of the one-step operator at v.

    On states with v(x) = inf every admissible action attains the
    (infinite) minimum, so the lowest-index admissible action is returned.
    """
    return bellman_apply(dtmdp, v)[1]


def _non_monotone(v: np.ndarray, tv: np.ndarray) -> SolverError:
    x = int(np.argwhere(tv < v)[0][0])
    return SolverError(f"monotonicity violated at state index {x}: "
                       f"{v[x]!r} -> {tv[x]!r}")


def _iterate(sweep, n: int, tol: float, max_iters: int, cap: float):
    """Shared fixed-point loop: monotone sweeps, cap classification, stopping.

    Returns (values, iterations, converged).  `sweep` maps the current
    vector to the next raw vector (not yet floored or pinned).  While every
    iterate is finite and at most the cap, no state is pending or pinned, so
    a sweep only floors, checks monotonicity and measures the relative
    change.  The cap and streak bookkeeping starts with the first iterate
    above the cap (or infinite, or not a number) and runs on every sweep
    after it.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if cap <= 1.0:
        raise ValueError(f"cap must exceed 1, got {cap}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    # the lean sweep needs every iterate finite as well as at most the cap;
    # with cap = inf an overflowed iterate must still take the full path
    lean_cap = min(cap, np.finfo(float).max)
    v = np.ones(n)
    streak = None  # consecutive growing sweeps above the cap, per state
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        tv = np.maximum(sweep(v), 1.0)
        if streak is None and tv.max() <= lean_cap:
            rel = (tv - v) / v  # v and tv finite: every state is active
            if rel.min() < 0.0:
                raise _non_monotone(v, tv)
            change, pending = rel.max(), False
        else:
            if streak is None:
                streak = np.zeros(n, dtype=int)
            tv[np.isinf(v)] = np.inf
            if np.any(tv < v):
                raise _non_monotone(v, tv)
            finite = np.isfinite(tv)
            streak = np.where(finite & (tv > cap) & (tv > v), streak + 1, 0)
            diverged = streak >= DIVERGENCE_SWEEPS
            if diverged.any():
                tv[diverged] = np.inf
                streak[diverged] = 0
            active = np.isfinite(tv) & (tv <= cap)
            pending = (np.isfinite(tv) & (tv > cap)).any()  # unclassified
            change = float(((tv[active] - v[active]) / v[active]).max()) \
                if active.any() else 0.0
        v = tv
        if change < tol and not pending:
            converged = True
            break
    return v, iterations, converged


def value_iterate(dtmdp: DtmdpModel, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS,
                  cap: float = DEFAULT_CAP) -> SolveReport:
    """Iterate the one-step operator from the constant 1 until convergence.

    Stops when the maximum relative change over states currently below the
    cap falls under tol; states exceeding the cap and growing for
    DIVERGENCE_SWEEPS consecutive sweeps are classified infinite and
    excluded from the stopping test.  Exhausting max_iters yields a report
    with converged=False rather than an exception.
    """
    weights = dtmdp.step_weights
    adm = dtmdp.admissible_mask

    def sweep(v):
        return np.where(adm, _masked_apply(weights, v), np.inf).min(axis=1)

    vals, iterations, converged = _iterate(sweep, dtmdp.n_states, tol,
                                           max_iters, cap)
    value = ValueFunction(vals)
    final, policy = bellman_apply(dtmdp, value)
    finite = value.finite_mask & final.finite_mask
    resid = float(np.max(np.abs(final.values[finite] - vals[finite])
                         / vals[finite])) if finite.any() else 0.0
    return SolveReport(value=value, policy=policy, iterations=iterations,
                       sup_residual=resid,
                       infinite_states=frozenset(
                           int(x) for x in np.flatnonzero(~value.finite_mask)),
                       converged=converged)


def evaluate_policy_iterative(dtmdp: DtmdpModel, policy: StationaryPolicy,
                              tol: float = DEFAULT_TOL,
                              cap: float = DEFAULT_CAP,
                              max_iters: int = DEFAULT_MAX_ITERS) -> ValueFunction:
    """Fixed-policy value by iterating the one-step operator with the
    action pinned to the policy; same stopping and divergence
    classification as value_iterate."""
    choice = dtmdp.check_policy(policy)
    rows = np.arange(dtmdp.n_states)
    weights = dtmdp.step_weights[rows, choice, :]

    def sweep(v):
        return _masked_apply(weights, v)

    vals, _, _ = _iterate(sweep, dtmdp.n_states, tol, max_iters, cap)
    return ValueFunction(vals)


def evaluate_policy_linear(dtmdp: DtmdpModel,
                           policy: StationaryPolicy) -> ValueFunction:
    """Fixed-policy value by solving the linear fixed-point system.

    States whose policy row is an exact self-loop are boundary (value 1)
    at zero step cost, or divergent (value inf) at positive step cost;
    every state that reaches a divergent state with positive probability
    is infinite as well.  The remaining states solve
    (I - M) V = M_boundary 1 with M the cost-weighted policy kernel.  If
    that system is singular, supercritical, or produces a value below 1,
    the iterative evaluator is used instead; the returned value function
    carries a diagnostics dict recording which route was taken.
    """
    choice = dtmdp.check_policy(policy)
    n = dtmdp.n_states
    rows = np.arange(n)
    kp = dtmdp.kernel[rows, choice, :]
    weights = dtmdp.step_weights[rows, choice, :]
    self_cost = dtmdp.log_cost[rows, choice, rows]

    off_diag = kp.copy()
    off_diag[rows, rows] = 0.0
    delta_row = ~(off_diag > 0).any(axis=1)
    boundary = delta_row & (self_cost == 0.0)
    infinite = delta_row & (self_cost > 0.0)
    # close the infinite set under "can reach with positive probability"
    while True:
        newly = ~infinite & (kp[:, infinite] > 0).any(axis=1)
        if not newly.any():
            break
        infinite |= newly
    transient = ~boundary & ~infinite

    def fallback(reason: str) -> ValueFunction:
        vf = evaluate_policy_iterative(dtmdp, policy)
        return ValueFunction(vf.values,
                             diagnostics={"method": "iterative_fallback",
                                          "reason": reason})

    vals = np.ones(n)
    vals[infinite] = np.inf
    if transient.any():
        m_tt = weights[np.ix_(transient, transient)]
        rhs = weights[np.ix_(transient, boundary)].sum(axis=1)
        radius = float(np.abs(np.linalg.eigvals(m_tt)).max())
        if radius >= 1.0 - 1e-12:
            return fallback(f"spectral radius {radius} not below 1")
        try:
            solution = np.linalg.solve(np.eye(m_tt.shape[0]) - m_tt, rhs)
        except np.linalg.LinAlgError:
            return fallback("singular linear system")
        if np.any(solution < 1.0 - 1e-9):
            return fallback("linear solution dipped below 1")
        vals[transient] = np.maximum(solution, 1.0)
    return ValueFunction(vals, diagnostics={"method": "linear"})


def optimality_residual(model: CtmdpModel, v: ValueFunction) -> dict:
    """Continuous-time optimality-equation residual at finite-value states.

    residual(x) = min over admissible a of
        c(x,a) v(x) + sum_{y != x} rates(x,a,y) v(y) - total_rate(x,a) v(x),
    a signed real; an action with a positive rate into an infinite-value
    state contributes +inf to the minimum.  States with v(x) = inf are
    skipped.
    """
    n = model.n_states
    if len(v.values) != n:
        raise ModelError("value function length does not match model")
    finite = v.finite_mask
    safe = np.where(finite, v.values, 0.0)
    flat = model.rates.reshape(-1, n)
    # one dot product per row, bit for bit what row @ safe gives; a single
    # flat @ safe can round differently in the last bit
    inflow = np.matmul(flat[:, None, :], safe[:, None]).reshape(n, -1)
    candidate = (model.costs * safe[:, None] + inflow
                 - model.total_rates * safe[:, None])
    # as in _masked_apply: positive weight into an infinite state is +inf
    reaches = (flat[:, ~finite] > 0.0).any(axis=1).reshape(n, -1)
    best = np.where(model.admissible_mask & ~reaches, candidate,
                    np.inf).min(axis=1)
    states = np.flatnonzero(finite)
    return dict(zip(states.tolist(), best[states].tolist()))


def check_supersolution(model: CtmdpModel, u: ValueFunction,
                        solved: ValueFunction, tol: float = 1e-8) -> bool:
    """True iff u has nonnegative residual (within tol) at every finite-u
    state and dominates the solved value pointwise."""
    residuals = optimality_residual(model, u)
    if any(r < -tol for r in residuals.values()):
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
    """
    n, m = dtmdp.n_states, dtmdp.n_actions
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if horizon == 0:
        return ValueFunction.constant(n)
    if horizon > ORACLE_MAX_HORIZON or m ** (n * horizon) > ORACLE_BUDGET:
        raise OracleGuardError(
            f"{m}^({n}*{horizon}) strategy tables exceed the oracle budget")
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
    return ValueFunction(np.maximum(best, 1.0))


def solve_ctmdp(model: CtmdpModel, tol: float = DEFAULT_TOL,
                max_iters: int = DEFAULT_MAX_ITERS,
                cap: float = DEFAULT_CAP):
    """Reduce, solve, extract a policy, and attach the continuous-time
    optimality residual.  Returns (report, reduced model)."""
    dtmdp = build_equivalent_dtmdp(model)
    report = value_iterate(dtmdp, tol=tol, max_iters=max_iters, cap=cap)
    residuals = optimality_residual(model, report.value)
    sup = max((abs(r) for r in residuals.values()), default=0.0)
    return replace(report, sup_residual=float(sup)), dtmdp
