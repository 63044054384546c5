"""Reduction of a continuous-time model to an equivalent discrete-time one.

Each state receives a weight w(x) = 1 + max_cost_rate(x) + max_total_rate(x).
Dividing the rate kernel by w and returning the leftover mass to the state
itself yields a proper stochastic kernel, and charging ln(w/(w - c)) per
step, a cost of the state and action only, makes the exponential-utility
value of the embedded chain coincide with the value of the original jump
process.  States, actions and admissible sets are preserved, so policies
transfer verbatim: both model classes share model.IndexedModel, which owns
the name rules, the indexing and the policy check.
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

    kernel[x, a], of shape (n_states, n_actions, n_states), is a
    probability vector over successor states: no negative or NaN entry,
    and every row sums to 1 within ROW_SUM_TOL, inadmissible ones too.
    step_cost[x, a] >= 0, of shape (n_states, n_actions), is the log of the
    cost factor of a step from x under a: a step's cost depends on its
    state and action only, as in the reduction.  The factor must be a
    float, so step_cost is at most ln of the largest float, about 709.78;
    the reduction's w/(w - c) always is.  step_weights = kernel *
    exp(step_cost), the weights of the one-step operator, is computed once
    here.  log_cost is step_cost broadcast over the successor axis, a
    read-only view of its memory, kept for per-transition readers outside
    the package (the benchmark's gate).
    """

    kernel: np.ndarray  # (n_states, n_actions, n_states)
    step_cost: np.ndarray  # (n_states, n_actions)
    log_cost: np.ndarray = field(init=False, repr=False)
    step_weights: np.ndarray = field(init=False, repr=False)

    _ARRAYS = ("kernel", "step_cost")

    def __post_init__(self):
        super().__post_init__()
        n, m = self.n_states, self.n_actions
        kernel, step_cost = self.kernel, self.step_cost
        if kernel.shape != (n, m, n) or step_cost.shape != (n, m):
            raise ModelError("kernel/step_cost shapes do not match state/action sets")
        bad = ~(kernel >= 0)  # negative or NaN
        if np.any(bad):
            x, a, y = np.argwhere(bad)[0]
            what = "NaN" if np.isnan(kernel[x, a, y]) else "negative"
            raise ModelError(
                f"{what} kernel entry at {self._at(x, a, y)}: {kernel[x, a, y]}")
        bad = ~np.isfinite(step_cost) | (step_cost < 0)
        if np.any(bad):
            x, a = np.argwhere(bad)[0]
            raise ModelError(
                f"invalid log-cost at {self._at(x, a)}: {step_cost[x, a]}")
        with np.errstate(over="ignore"):
            factor = np.exp(step_cost)
            sums = kernel.sum(axis=2)
        bad = np.isinf(factor)
        if np.any(bad):
            x, a = np.argwhere(bad)[0]
            raise ModelError(
                f"log-cost at {self._at(x, a)} is {step_cost[x, a]}: its "
                f"cost factor exp({step_cost[x, a]}) overflows")
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            x, a = np.argwhere(bad)[0]
            raise ModelError(f"kernel row at {self._at(x, a)} sums to "
                             f"{float(sums[x, a])!r}, not 1")
        weights = kernel * factor[:, :, None]
        for arr in (kernel, step_cost, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "log_cost",
                           np.broadcast_to(step_cost[:, :, None], (n, m, n)))
        object.__setattr__(self, "step_weights", weights)

    def to_dict(self) -> dict:
        s, a = self.states, self.actions
        kernel = Table(self.kernel > 0.0, {"from": s, "action": a, "to": s},
                       "prob", self.kernel)
        log_cost = Table(self.step_cost > 0.0, {"state": s, "action": a},
                         "value", self.step_cost)
        return {**self._names_dict(), "kernel": kernel, "log_cost": log_cost}


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
    1 - total_rate(x,a)/w(x) kept at x; step_cost(x,a) =
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
    step_cost = np.log(np.where(adm, w[:, None], 1.0) / denom)
    x, a = np.nonzero(~adm)
    kernel[x, a, :] = 0.0
    kernel[x, a, x] = 1.0
    return DtmdpModel(model.states, model.actions, model.admissible, kernel,
                      step_cost)
