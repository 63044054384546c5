"""Reduction of a continuous-time model to an equivalent discrete-time one.

Any weight w(x, a) >= q(x, a), the total rate, with w > c(x, a), the cost
rate, gives an equivalent discrete-time model: dividing the rate kernel by
w and returning the leftover mass 1 - q/w to the state itself yields a
proper stochastic kernel, and charging ln(w/(w - c)) per step, a cost of
the state and action only, makes the exponential-utility value of that
chain coincide with the value of the original jump process, as the number
of self-loops before each jump times their cost leaves the sojourn factor
q/(q - c) whatever w is.  The reduction takes w = q where c < q, so that
such a pair's row is the embedded jump chain's, with no self-loop.  Every
other pair needs no weight: its sojourn factor is 1 at q = c = 0 and
infinite at c >= q, and an identity row, at zero cost or at a positive
one, has that value.  States, actions and admissible sets are preserved,
so policies transfer verbatim: both model classes share
model.IndexedModel, which owns the name rules, the indexing and the policy
check.
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
    the reduction's q/(q - c) and 2 always are.  step_weights = kernel *
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


def build_equivalent_dtmdp(model: CtmdpModel) -> DtmdpModel:
    """Embed the jump process into a discrete-time model with equal value.

    An admissible pair with cost rate c below its total rate q, a jump
    pair, takes the weight w = q: kernel(x,a)[y] = rates(x,a,y)/q, no
    self-loop, and step_cost(x,a) = ln(q/(q - c)), computed as
    log1p(c/(q - c)), which keeps every digit where c is small against
    q - c.  Every other pair gets an identity row: at cost ln 2, a step
    factor of exactly 2, if it is admissible with c > 0, so that every
    state that reaches it is infinite, and at zero cost otherwise, where
    q = c = 0 and the value is 1 or the pair is inadmissible.
    """
    n = model.n_states
    q, c = model.total_rates, model.costs
    adm = model.admissible_mask
    jump = adm & (c < q)
    # off the jump pairs, 1 stands in for q and q - c: those rows and
    # step costs are overwritten or discarded
    kernel = model.rates / np.where(jump, q, 1.0)[:, :, None]
    kernel[~jump] = np.eye(n)[np.nonzero(~jump)[0]]
    step_cost = np.where(jump, np.log1p(c / np.where(jump, q - c, 1.0)),
                         np.where(adm & (c > 0.0), np.log(2.0), 0.0))
    return DtmdpModel(model.states, model.actions, model.admissible, kernel,
                      step_cost)
