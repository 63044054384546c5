"""Exact rational reference: the value of a stationary policy on a
CtmdpModel, and the optimal value as the minimum over all of them.

Every rate and cost rate is a binary float, which fractions.Fraction holds
exactly, so the fixed-policy equations

    (q(x) - c(x)) V(x) = sum over y != x of rates(x, y) V(y),

q the total rate and c the cost rate under the policy, are solved without
rounding.  Nothing here calls the package's solver or evaluators.
"""

import itertools
import math
from fractions import Fraction


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
