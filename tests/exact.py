"""Exact rational reference: the value of a stationary policy on a
CtmdpModel, the optimal value as the minimum over all of them, and exact
per-action checks of a solve's finite values and of its infinite set.

Every rate and cost rate is a binary float, which fractions.Fraction holds
exactly, so the fixed-policy equations

    (q(x) - c(x)) V(x) = sum over y != x of rates(x, y) V(y),

q the total rate and c the cost rate under the policy, are solved without
rounding.  Nothing here calls the package's solver or evaluators.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def _reach(succ):
    """Per state, the set of states it reaches, itself included."""
    reach = [{x} | set(ys) for x, ys in enumerate(succ)]
    changed = True
    while changed:
        changed = False
        for seen in reach:
            more = set().union(*(reach[y] for y in seen)) - seen
            if more:
                seen |= more
                changed = True
    return reach


def _solve_m_matrix(a, b):
    """x with a x = b by Gaussian elimination without pivoting, or None
    unless every pivot is positive.  For a Z-matrix (off-diagonal entries
    <= 0) the pivots are the ratios of its leading principal minors, so
    they are all positive exactly when a is a nonsingular M-matrix."""
    a = [row[:] + [rhs] for row, rhs in zip(a, b)]
    k = len(a)
    for i in range(k):
        if a[i][i] <= 0:
            return None
        for j in range(i + 1, k):
            f = a[j][i] / a[i][i]
            a[j] = [vj - f * vi for vj, vi in zip(a[j], a[i])]
    x = [Fraction(0)] * k
    for i in reversed(range(k)):
        x[i] = (a[i][k] - sum(a[i][j] * x[j] for j in range(i + 1, k))) \
            / a[i][i]
    return x


def policy_value(model, choice):
    """Exact value of the stationary policy `choice` (an action index per
    state): a list of Fractions, with math.inf where it is infinite.

    A state that cannot reach a positive cost rate has value 1.  The other
    states are solved one strongly connected class at a time, sinks
    first.  A class is infinite when it has a rate into an infinite state,
    or when its matrix diag(q - c) - rates is not a nonsingular M-matrix:
    it then cannot be left fast enough to pay for its costs, or, closed
    with a positive cost, never is left.
    """
    n = model.n_states
    rates = [[Fraction(float(r)) for r in model.rates[x, a]]
             for x, a in enumerate(choice)]
    cost = [Fraction(float(model.costs[x, a])) for x, a in enumerate(choice)]
    reach = _reach([[y for y in range(n) if rates[x][y] > 0]
                    for x in range(n)])
    value = [Fraction(1) if all(cost[y] == 0 for y in reach[x]) else None
             for x in range(n)]
    for x in sorted(range(n), key=lambda x: len(reach[x])):
        if value[x] is not None:
            continue
        members = [y for y in reach[x] if x in reach[y]]
        outside = [y for y in range(n) if y not in members]
        if any(rates[y][z] > 0 and value[z] == math.inf
               for y in members for z in outside):
            solved = None
        else:
            a = [[(sum(rates[y]) - cost[y] if y == z else -rates[y][z])
                  for z in members] for y in members]
            b = [sum(rates[y][z] * value[z] for z in outside
                     if rates[y][z] > 0) for y in members]
            solved = _solve_m_matrix(a, b)
        for i, y in enumerate(members):
            value[y] = math.inf if solved is None else solved[i]
    return value


def optimal_value(model):
    """Pointwise minimum of policy_value over every deterministic
    stationary policy: the optimal value, as an optimal stationary policy
    exists."""
    best = None
    for choice in itertools.product(*model.admissible):
        value = policy_value(model, choice)
        best = value if best is None else [min(u, v)
                                           for u, v in zip(best, value)]
    return best


def assert_optimal_actions(model, choice, rtol):
    """Check the stationary policy `choice` action by action, with no
    enumeration, and return its exact value V (policy_value).

    At each finite state x and each admissible action a with no positive
    rate into a state where V is infinite, the generator-form residual

        r = c(x, a) V(x) + sum over y != x of rates(x, a, y) V(y)
            - q(x, a) V(x)

    is exact.  It is 0 for the policy's own action, and no other action
    is better by more than rtol: r >= -rtol (w(x) - c(x, a)) V(x), w the
    uniformization weight 1 + the largest cost rate + the largest total
    rate over the admissible actions at x.  On the discrete-time model
    that reads (W_a V)(x) >= (1 - rtol) V(x), the rule by which policy
    iteration declines to switch an action.
    """
    value = policy_value(model, choice)
    n = model.n_states
    for x in range(n):
        if value[x] == math.inf:
            continue
        rates = {a: [Fraction(float(r)) for r in model.rates[x, a]]
                 for a in model.admissible[x]}
        cost = {a: Fraction(float(model.costs[x, a]))
                for a in model.admissible[x]}
        w = 1 + max(cost.values()) + max(sum(row) for row in rates.values())
        for a, row in rates.items():
            if any(r > 0 and value[y] == math.inf for y, r in enumerate(row)):
                continue
            r = (cost[a] * value[x] - sum(row) * value[x]
                 + sum(row[y] * value[y] for y in range(n) if row[y] > 0))
            if a == choice[x]:
                assert r == 0, (x, a, r)
            else:
                assert r >= -Fraction(rtol) * (w - cost[a]) * value[x], \
                    (x, a, float(r / value[x]))
    return value


def _uniformized(model):
    """Float weights W(x, a, y) of a one-step operator on which
    (W h)(x) > h(x) exactly where the generator-form residual of h is
    positive: a DtmdpModel's step weights, or on a CtmdpModel
    (rates + (w - q) I) / (w - c), w = 1 + the largest q + c."""
    if not hasattr(model, "rates"):
        return model.step_weights
    q, c = model.total_rates, model.costs
    w = 1.0 + float((q + c).max())
    diagonal = np.eye(model.n_states)[:, None, :] * (w - q)[:, :, None]
    return (model.rates + diagonal) / (w - c)[:, :, None]


def assert_infinite_set(model, infinite, choice=None, target=1e-9,
                        max_steps=2_000):
    """Prove every policy's value infinite on the set `infinite`, with no
    enumeration; with `choice`, an action index per state, the value of
    that policy alone.

    h is positive on S = infinite and 0 off it.  If at every x in S and
    every admissible a (the chosen one, with `choice`)

        r = c(x, a) h(x) + sum over y != x of rates(x, a, y) h(y)
            - q(x, a) h(x) > 0

    in exact arithmetic, then E[e^{integral of c} h(X_t)] grows at least
    like e^{eps t} under every policy while h is bounded, so the value is
    infinite on S.  On a DtmdpModel the condition reads
    sum over y of W(x, a, y) h(y) > h(x), W the step weights.  h comes from
    lazy float power steps y <- y + T_S y over S from ones, T_S the
    one-step operator on S, until the lowest ratio T_S y / y passes
    1 + target or max_steps run out (a ratio as close to 1 as
    two_state q=1 c=1+1e-10's never passes it); the check itself is in
    Fractions.  The empty set passes.
    """
    s = sorted(infinite)
    if not s:
        return
    actions = [[choice[x]] if choice is not None else list(model.admissible[x])
               for x in s]
    allowed = np.zeros((len(s), model.n_actions), dtype=bool)
    for i, acts in enumerate(actions):
        allowed[i, acts] = True
    block = _uniformized(model)[np.ix_(s, range(model.n_actions), s)]
    y = np.ones(len(s))
    for _ in range(max_steps):
        ty = np.where(allowed, block @ y, np.inf).min(axis=1)
        if (ty / y).min() > 1.0 + target:
            break
        y = y + ty
        y = y / y.max()
    assert (y > 0.0).all(), y
    h = [Fraction(float(v)) for v in y]
    for i, x in enumerate(s):
        for a in actions[i]:
            if hasattr(model, "rates"):
                row = [Fraction(float(r)) for r in model.rates[x, a]]
                r = (Fraction(float(model.costs[x, a])) * h[i] - sum(row) * h[i]
                     + sum(row[z] * h[j] for j, z in enumerate(s) if z != x))
            else:
                row = model.step_weights[x, a]
                r = sum(Fraction(float(row[z])) * h[j]
                        for j, z in enumerate(s)) - h[i]
            assert r > 0, (x, a, float(r / h[i]))
