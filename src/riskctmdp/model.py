"""Finite continuous-time MDP instances: validation, fixtures, serialization.

A model is a finite state set, a finite action set, per-state admissible
actions, nonnegative jump rates between distinct states, and nonnegative
finite cost rates.  The diagonal of the rate kernel is always implied
(minus the total outflow rate), never stored, so every row is conservative
by construction.  State and action identifiers are strings in files and
dense indices in memory; index order is file order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GENERATOR_KINDS = ("two_state", "pure_birth", "birth_death", "random")


class ModelError(ValueError):
    """Invalid model, policy, or generator parameters."""


def _unique_names(names, what: str) -> tuple:
    if not names:
        raise ModelError(f"{what} list is empty")
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise ModelError(f"{what} identifier {name!r} is not a string")
        if name in seen:
            raise ModelError(f"duplicate {what} identifier '{name}'")
        seen.add(name)
    return tuple(names)


@dataclass(frozen=True, eq=False)
class IndexedModel:
    """States, actions and per-state admissible action sets.

    The reduction keeps all three, so the continuous-time model and its
    discrete-time equivalent share this base: the admissible mask, name
    lookups, the policy check, equality and the sparse entry order of
    their files.  Subclasses list their array fields in _ARRAYS.
    """

    states: tuple
    actions: tuple
    admissible: tuple  # per state, sorted tuple of admissible action indices
    admissible_mask: np.ndarray = field(init=False, repr=False)

    _ARRAYS = ()

    def __post_init__(self):
        if not self.states:
            raise ModelError("state list is empty")
        mask = np.zeros((self.n_states, self.n_actions), dtype=bool)
        for x, acts in enumerate(self.admissible):
            for a in acts:
                if not 0 <= a < self.n_actions:
                    raise ModelError(
                        f"admissible action index {a} out of range at "
                        f"state '{self.states[x]}'")
            mask[x, list(acts)] = True
        mask.setflags(write=False)
        object.__setattr__(self, "admissible_mask", mask)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ModelError(f"unknown state '{name}'") from None

    def action_index(self, name: str) -> int:
        try:
            return self.actions.index(name)
        except ValueError:
            raise ModelError(f"unknown action '{name}'") from None

    def check_policy(self, policy) -> np.ndarray:
        """Validate a stationary policy against the admissible sets;
        returns its choice as an index array."""
        if len(policy.choice) != self.n_states:
            raise ModelError(
                f"policy covers {len(policy.choice)} states, model has "
                f"{self.n_states}")
        for x, a in enumerate(policy.choice):
            if not 0 <= a < self.n_actions:
                raise ModelError(f"policy action index {a} out of range at "
                                 f"state '{self.states[x]}'")
            if a not in self.admissible[x]:
                raise ModelError(
                    f"policy action '{self.actions[a]}' is not admissible at "
                    f"state '{self.states[x]}'")
        return np.asarray(policy.choice, dtype=int)

    def _sparse(self, where: np.ndarray) -> tuple:
        """Indices and names of the true entries of an (n_states, n_actions)
        or (n_states, n_actions, n_states) mask, in C order (state, action,
        successor), which is the entry order of the file formats.

        Returns (index arrays, one list of names per axis).
        """
        idx = np.nonzero(where)
        axes = (self.states, self.actions, self.states)
        return idx, [[axes[k][i] for i in ix.tolist()]
                     for k, ix in enumerate(idx)]

    def _names_dict(self) -> dict:
        return {
            "states": list(self.states),
            "actions": list(self.actions),
            "admissible": {self.states[x]: [self.actions[a] for a in acts]
                           for x, acts in enumerate(self.admissible)},
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.states == other.states
                and self.actions == other.actions
                and self.admissible == other.admissible
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in self._ARRAYS))


@dataclass(frozen=True, eq=False)
class CtmdpModel(IndexedModel):
    """Validated continuous-time MDP; immutable after construction.

    rates[x, a, y] is the jump rate from x to y (zero on the diagonal),
    costs[x, a] the cost rate.  total_rates, max_total_rate and
    max_cost_rate are cached over admissible actions.
    """

    rates: np.ndarray  # (n_states, n_actions, n_states), diagonal zero
    costs: np.ndarray  # (n_states, n_actions)
    total_rates: np.ndarray = field(default=None)  # (n_states, n_actions)
    max_total_rate: np.ndarray = field(default=None)  # (n_states,)
    max_cost_rate: np.ndarray = field(default=None)  # (n_states,)

    _ARRAYS = ("rates", "costs")

    def __post_init__(self):
        super().__post_init__()
        adm_mask = self.admissible_mask
        total = self.rates.sum(axis=2)
        masked_total = np.where(adm_mask, total, 0.0)
        masked_cost = np.where(adm_mask, self.costs, 0.0)
        object.__setattr__(self, "total_rates", total)
        object.__setattr__(self, "max_total_rate", masked_total.max(axis=1))
        object.__setattr__(self, "max_cost_rate", masked_cost.max(axis=1))
        for arr in (self.rates, self.costs, self.total_rates,
                    self.max_total_rate, self.max_cost_rate):
            arr.setflags(write=False)

    def total_rate(self, x: int, a: int) -> float:
        """Total outflow rate from state x under action a."""
        if a not in self.admissible[x]:
            raise ModelError(
                f"action '{self.actions[a]}' is not admissible at state "
                f"'{self.states[x]}'")
        return float(self.total_rates[x, a])

    def to_dict(self) -> dict:
        """Canonical file representation (sparse, sorted entries)."""
        idx, names = self._sparse(self.rates > 0.0)
        rates = [{"from": x, "action": a, "to": y, "rate": r}
                 for x, a, y, r in zip(*names, self.rates[idx].tolist())]
        idx, names = self._sparse(self.costs > 0.0)
        costs = [{"state": x, "action": a, "rate": c}
                 for x, a, c in zip(*names, self.costs[idx].tolist())]
        return {**self._names_dict(), "rates": rates, "costs": costs}


@dataclass(frozen=True)
class StationaryPolicy:
    """A fixed choice of one admissible action index per state."""

    choice: tuple

    def action(self, x: int) -> int:
        return self.choice[x]

    def to_dict(self, model: CtmdpModel) -> dict:
        return {"policy": {model.states[x]: model.actions[a]
                           for x, a in enumerate(self.choice)}}


def validate_policy(model, policy: StationaryPolicy) -> StationaryPolicy:
    model.check_policy(policy)
    return policy


def parse_policy(model, data: dict) -> StationaryPolicy:
    """Parse {"policy": {state: action}}; solve reports work unchanged."""
    if not isinstance(data, dict) or "policy" not in data:
        raise ModelError('policy document must contain a "policy" mapping')
    mapping = data["policy"]
    if not isinstance(mapping, dict):
        raise ModelError('"policy" must map state names to action names')
    choice = []
    for x, name in enumerate(model.states):
        if name not in mapping:
            raise ModelError(f"policy is missing state '{name}'")
        choice.append(model.action_index(mapping[name]))
    return validate_policy(model, StationaryPolicy(tuple(choice)))


def _finite_nonneg(value, what: str, where: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"non-numeric {what} at {where}: {value!r}") from None
    if np.isnan(v):
        raise ModelError(f"NaN {what} at {where}")
    if v < 0.0:
        raise ModelError(f"negative {what} at {where}: {v}")
    if np.isinf(v):
        raise ModelError(f"infinite {what} at {where}")
    return v


def validate_model(raw_model) -> CtmdpModel:
    """Validate untrusted model data (or re-validate a model) and cache sums.

    Accepts either a parsed JSON dict in the model file schema or an
    existing CtmdpModel; validating a validated model returns an equal
    model.  Every violation is reported with its offending coordinates.
    """
    if isinstance(raw_model, CtmdpModel):
        return _validate_arrays(raw_model)
    if not isinstance(raw_model, dict):
        raise ModelError(f"expected a model mapping, got {type(raw_model).__name__}")

    states = _unique_names(raw_model.get("states", []), "state")
    actions = _unique_names(raw_model.get("actions", []), "action")
    sidx = {s: i for i, s in enumerate(states)}
    aidx = {a: i for i, a in enumerate(actions)}
    n, m = len(states), len(actions)

    adm_raw = raw_model.get("admissible")
    if adm_raw is None:
        admissible = tuple(tuple(range(m)) for _ in range(n))
    else:
        if not isinstance(adm_raw, dict):
            raise ModelError('"admissible" must map state names to action lists')
        for name in adm_raw:
            if name not in sidx:
                raise ModelError(f"unknown state '{name}' in admissible map")
        per_state = []
        for s in states:
            names = adm_raw.get(s)
            if names is None:
                per_state.append(tuple(range(m)))
                continue
            ids = set()
            for a in names:
                if a not in aidx:
                    raise ModelError(
                        f"unknown action '{a}' in admissible set of state '{s}'")
                ids.add(aidx[a])
            if not ids:
                raise ModelError(f"empty admissible set for state '{s}'")
            per_state.append(tuple(sorted(ids)))
        admissible = tuple(per_state)

    rates = np.zeros((n, m, n))
    seen_rate = set()
    for entry in raw_model.get("rates", []):
        where = (entry.get("from"), entry.get("action"), entry.get("to"))
        for key, names in (("from", sidx), ("action", aidx), ("to", sidx)):
            if entry.get(key) not in names:
                kind = "action" if key == "action" else "state"
                raise ModelError(
                    f"unknown {kind} '{entry.get(key)}' in rates entry {where}")
        x, a, y = sidx[entry["from"]], aidx[entry["action"]], sidx[entry["to"]]
        if x == y:
            raise ModelError(
                f"explicit self-loop rate at ('{entry['from']}', "
                f"'{entry['action']}'); the diagonal is implied")
        if (x, a, y) in seen_rate:
            raise ModelError(f"duplicate rate entry at {where}")
        seen_rate.add((x, a, y))
        rates[x, a, y] = _finite_nonneg(entry.get("rate"), "rate", str(where))

    costs = np.zeros((n, m))
    seen_cost = set()
    for entry in raw_model.get("costs", []):
        where = (entry.get("state"), entry.get("action"))
        if entry.get("state") not in sidx:
            raise ModelError(f"unknown state '{entry.get('state')}' in costs entry")
        if entry.get("action") not in aidx:
            raise ModelError(f"unknown action '{entry.get('action')}' in costs entry")
        x, a = sidx[entry["state"]], aidx[entry["action"]]
        if (x, a) in seen_cost:
            raise ModelError(f"duplicate cost entry at {where}")
        seen_cost.add((x, a))
        costs[x, a] = _finite_nonneg(entry.get("rate"), "cost", str(where))

    return CtmdpModel(states=states, actions=actions, admissible=admissible,
                      rates=rates, costs=costs)


def _validate_arrays(model: CtmdpModel) -> CtmdpModel:
    n, m = model.n_states, model.n_actions
    if model.rates.shape != (n, m, n) or model.costs.shape != (n, m):
        raise ModelError("rate/cost array shapes do not match state/action sets")
    diag = model.rates[np.arange(n), :, np.arange(n)]
    if np.any(diag != 0.0):
        x = int(np.argwhere(diag != 0.0)[0][0])
        raise ModelError(f"explicit self-loop rate at ('{model.states[x]}')")
    bad = ~np.isfinite(model.rates) | (model.rates < 0)
    if np.any(bad):
        x, a, y = (int(i) for i in np.argwhere(bad)[0])
        raise ModelError(
            f"invalid rate at ('{model.states[x]}', '{model.actions[a]}', "
            f"'{model.states[y]}'): {model.rates[x, a, y]}")
    bad = ~np.isfinite(model.costs) | (model.costs < 0)
    if np.any(bad):
        x, a = (int(i) for i in np.argwhere(bad)[0])
        raise ModelError(
            f"invalid cost at ('{model.states[x]}', '{model.actions[a]}'): "
            f"{model.costs[x, a]}")
    for x, acts in enumerate(model.admissible):
        if not acts:
            raise ModelError(f"empty admissible set for state '{model.states[x]}'")
    return model


def _require(params: dict, allowed: dict, kind: str) -> dict:
    out = {}
    for key, (default, check, desc) in allowed.items():
        value = params.get(key, default)
        if value is None:
            raise ModelError(f"generator '{kind}' requires parameter '{key}'")
        if not check(value):
            raise ModelError(
                f"generator '{kind}' parameter '{key}'={value!r} out of range "
                f"({desc})")
        out[key] = value
    extra = set(params) - set(allowed)
    if extra:
        raise ModelError(f"generator '{kind}' got unknown parameters {sorted(extra)}")
    return out


def _fin(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)


def gen_example(kind: str, params: dict, seed: int) -> CtmdpModel:
    """Deterministically generate a fixture model.

    two_state:  {"q": rate > 0, "c": cost >= 0} -- one working state that
        jumps to an absorbing state at rate q while paying c per unit time.
    pure_birth: {"N": 1..20, "kappa": cost >= 0} -- states 0..N, state
        n < N jumps to n+1 at rate 2^(n+1) at cost rate kappa; N absorbs.
    birth_death: {"levels": 1..63, "birth": >= 0, "death": > 0,
        "cost": >= 0} -- level i pays cost*i, climbs at `birth`, falls at
        `death`; level 0 absorbs at zero cost.
    random: {"n": 2..64, "m": 1..8, "rate_scale": > 0, "cost_scale":
        [0, 1)} -- state 0 absorbs at zero cost, every other state-action
        pair has a rate to some lower-indexed state (so a zero-cost
        absorbing state is reachable under every policy) plus occasional
        extra edges; costs stay below cost_scale times the total rate.
    """
    if kind not in GENERATOR_KINDS:
        raise ModelError(f"unknown generator kind '{kind}'")
    params = dict(params or {})

    if kind == "two_state":
        p = _require(params, {
            "q": (None, lambda v: _fin(v) and v > 0, "finite rate > 0"),
            "c": (None, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        data = {
            "states": ["absorb", "work"],
            "actions": ["a0"],
            "rates": [{"from": "work", "action": "a0", "to": "absorb",
                       "rate": float(p["q"])}],
            "costs": [{"state": "work", "action": "a0", "rate": float(p["c"])}],
        }
        return validate_model(data)

    if kind == "pure_birth":
        p = _require(params, {
            "N": (None, lambda v: isinstance(v, int) and 1 <= v <= 20, "int in 1..20"),
            "kappa": (1.0, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        N, kappa = p["N"], float(p["kappa"])
        data = {
            "states": [str(i) for i in range(N + 1)],
            "actions": ["a0"],
            "rates": [{"from": str(i), "action": "a0", "to": str(i + 1),
                       "rate": float(2 ** (i + 1))} for i in range(N)],
            "costs": [{"state": str(i), "action": "a0", "rate": kappa}
                      for i in range(N)],
        }
        return validate_model(data)

    if kind == "birth_death":
        p = _require(params, {
            "levels": (None, lambda v: isinstance(v, int) and 1 <= v <= 63,
                       "int in 1..63"),
            "birth": (None, lambda v: _fin(v) and v >= 0, "finite rate >= 0"),
            "death": (None, lambda v: _fin(v) and v > 0, "finite rate > 0"),
            "cost": (None, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        levels = p["levels"]
        rates, costs = [], []
        for i in range(1, levels + 1):
            rates.append({"from": str(i), "action": "a0", "to": str(i - 1),
                          "rate": float(p["death"])})
            if i < levels and p["birth"] > 0:
                rates.append({"from": str(i), "action": "a0", "to": str(i + 1),
                              "rate": float(p["birth"])})
            if p["cost"] > 0:
                costs.append({"state": str(i), "action": "a0",
                              "rate": float(p["cost"]) * i})
        data = {
            "states": [str(i) for i in range(levels + 1)],
            "actions": ["a0"],
            "rates": rates,
            "costs": costs,
        }
        return validate_model(data)

    p = _require(params, {
        "n": (None, lambda v: isinstance(v, int) and 2 <= v <= 64, "int in 2..64"),
        "m": (None, lambda v: isinstance(v, int) and 1 <= v <= 8, "int in 1..8"),
        "rate_scale": (1.0, lambda v: _fin(v) and v > 0, "finite > 0"),
        "cost_scale": (0.5, lambda v: _fin(v) and 0 <= v < 1, "in [0, 1)"),
    }, kind)
    n, m = p["n"], p["m"]
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    rates = np.zeros((n, m, n))
    costs = np.zeros((n, m))
    for x in range(1, n):
        for a in range(m):
            down = int(rng.integers(0, x))
            rates[x, a, down] += p["rate_scale"] * (0.5 + rng.random())
            if rng.random() < 0.5:
                other = int(rng.integers(0, n - 1))
                if other >= x:
                    other += 1
                rates[x, a, other] += p["rate_scale"] * (0.1 + 0.9 * rng.random())
            costs[x, a] = rng.random() * p["cost_scale"] * rates[x, a].sum()
    states = tuple(f"s{i}" for i in range(n))
    actions = tuple(f"a{j}" for j in range(m))
    admissible = tuple(tuple(range(m)) for _ in range(n))
    return _validate_arrays(CtmdpModel(states=states, actions=actions,
                                       admissible=admissible, rates=rates,
                                       costs=costs))
