"""Reduction of a continuous-time model to an equivalent discrete-time one.

Each state receives a weight w(x) = 1 + max_cost_rate(x) + max_total_rate(x).
Dividing the rate kernel by w and returning the leftover mass to the state
itself yields a proper stochastic kernel, and charging ln(w/(w - c)) per
step makes the exponential-utility value of the embedded chain coincide
with the value of the original jump process.  States, actions and
admissible sets are preserved, so policies transfer verbatim: both model
classes share model.IndexedModel, which owns the name rules, the indexing
and the policy check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .jsonio import Table
from .model import CtmdpModel, IndexedModel, ModelError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DtmdpModel(IndexedModel):
    """Discrete-time model with per-step kernel and multiplicative cost,
    checked when it is built; immutable after.

    Both arrays have shape (n_states, n_actions, n_states).  kernel[x, a]
    is a probability vector over successor states: no negative or NaN
    entry, and the rows of admissible pairs sum to 1 within ROW_SUM_TOL.
    log_cost[x, a, y] >= 0 is the log of the cost factor of a step from x
    under a, the same for every successor y: a step's cost depends on its
    state and action only, as in the reduction.  The factor must be a
    float, so log_cost is at most ln of the largest float, about 709.78;
    the reduction's w/(w - c) always is.  It keeps
    the successor axis so that step_weights = kernel * exp(log_cost), the
    weights of the one-step operator, is computed once here.
    """

    kernel: np.ndarray  # (n_states, n_actions, n_states)
    log_cost: np.ndarray  # (n_states, n_actions, n_states)
    step_weights: np.ndarray = field(init=False, repr=False)

    _ARRAYS = ("kernel", "log_cost")

    def __post_init__(self):
        super().__post_init__()
        n, m = self.n_states, self.n_actions
        kernel, log_cost = self.kernel, self.log_cost
        if kernel.shape != (n, m, n) or log_cost.shape != (n, m, n):
            raise ModelError("kernel/log_cost shapes do not match state/action sets")
        bad = ~(kernel >= 0)  # negative or NaN
        if np.any(bad):
            x, a, y = np.argwhere(bad)[0]
            what = "NaN" if np.isnan(kernel[x, a, y]) else "negative"
            raise ModelError(
                f"{what} kernel entry at {self._at(x, a, y)}: {kernel[x, a, y]}")
        bad = ~np.isfinite(log_cost) | (log_cost < 0)
        if np.any(bad):
            x, a, y = np.argwhere(bad)[0]
            raise ModelError(
                f"invalid log-cost at {self._at(x, a, y)}: {log_cost[x, a, y]}")
        with np.errstate(over="ignore"):
            factor = np.exp(log_cost)
        bad = np.isinf(factor)
        if np.any(bad):
            x, a, y = np.argwhere(bad)[0]
            raise ModelError(
                f"log-cost at {self._at(x, a, y)} is {log_cost[x, a, y]}: its "
                f"cost factor exp({log_cost[x, a, y]}) overflows")
        bad = log_cost != log_cost[:, :, :1]
        if np.any(bad):
            x, a, y = np.argwhere(bad)[0]
            raise ModelError(
                f"log-cost varies with the successor at {self._at(x, a, y)}: "
                f"{log_cost[x, a, y]}, not {log_cost[x, a, 0]}")
        sums = kernel.sum(axis=2)
        bad = self.admissible_mask & (np.abs(sums - 1.0) > ROW_SUM_TOL)
        if np.any(bad):
            x, a = np.argwhere(bad)[0]
            raise ModelError(f"kernel row at {self._at(x, a)} sums to "
                             f"{float(sums[x, a])!r}, not 1")
        weights = kernel * factor
        for arr in (kernel, log_cost, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "step_weights", weights)

    def to_dict(self) -> dict:
        s, a = self.states, self.actions
        step_cost = self.log_cost[:, :, 0]  # constant in the successor
        kernel = Table(self.kernel > 0.0, {"from": s, "action": a, "to": s},
                       "prob", self.kernel)
        log_cost = Table(step_cost > 0.0, {"state": s, "action": a}, "value",
                         step_cost)
        return {**self._names_dict(), "kernel": kernel, "log_cost": log_cost}


def make_dtmdp(states, actions, kernel, log_cost, admissible=None) -> DtmdpModel:
    """Build a discrete-time model from array-likes.

    An (n_states, n_actions) log_cost is constant in the successor and is
    broadcast to (n_states, n_actions, n_states).  DtmdpModel checks the
    rest; None admits every action.
    """
    n, m = len(states), len(actions)
    log_cost = np.asarray(log_cost, dtype=float)
    if log_cost.shape == (n, m):  # constant-in-successor costs
        log_cost = np.repeat(log_cost[:, :, None], n, axis=2)
    return DtmdpModel(states=states, actions=actions, admissible=admissible,
                      kernel=kernel, log_cost=log_cost)


def uniformization_weight(model: CtmdpModel) -> np.ndarray:
    """Per-state weight 1 + max cost rate + max total rate.

    This is the smallest admissible choice; it minimizes the self-loop
    mass of the embedded chain.  It guarantees w(x) >= 1 and
    w(x) - c(x, a) >= 1 + max_total_rate(x) > 0 for every admissible a.
    """
    return 1.0 + model.max_cost_rate + model.max_total_rate


def build_equivalent_dtmdp(model: CtmdpModel) -> DtmdpModel:
    """Embed the jump process into a discrete-time model with equal value.

    kernel(x,a)[y] = rates(x,a,y)/w(x) for y != x, with the leftover mass
    1 - total_rate(x,a)/w(x) kept at x; log_cost(x,a,.) =
    ln(w(x)/(w(x) - c(x,a))).  Inadmissible pairs get an identity row at
    zero cost so that every row stays stochastic.
    """
    n = model.n_states
    w = uniformization_weight(model)
    adm = model.admissible_mask
    kernel = model.rates / w[:, None, None]
    idx = np.arange(n)
    kernel[idx, :, idx] = 1.0 - model.total_rates / w[:, None]
    # w - c > 0 is only guaranteed for admissible pairs; inadmissible rows
    # become identity rows at zero cost so every row stays stochastic
    denom = np.where(adm, w[:, None] - model.costs, 1.0)
    log_cost = np.log(np.where(adm, w[:, None], 1.0) / denom)
    x, a = np.nonzero(~adm)
    kernel[x, a, :] = 0.0
    kernel[x, a, x] = 1.0
    return make_dtmdp(model.states, model.actions, kernel, log_cost,
                      model.admissible)
