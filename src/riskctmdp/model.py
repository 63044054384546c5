"""Finite continuous-time MDP instances: validation, fixtures, serialization.

A model is a finite state set, a finite action set, per-state admissible
actions, nonnegative jump rates between distinct states, and nonnegative
finite cost rates.  The diagonal of the rate kernel is always implied
(minus the total outflow rate), never stored, so every row is conservative
by construction.  State and action identifiers are strings in files and
dense indices in memory; index order is file order.

The model classes check every rule when they are built; validate_model
only turns the entries of a model file into arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .jsonio import Table

GENERATOR_KINDS = ("two_state", "pure_birth", "birth_death", "random")


class ModelError(ValueError):
    """Invalid model, policy, or generator parameters."""


def _unique_names(names, what: str) -> tuple:
    if not isinstance(names, (list, tuple)):
        raise ModelError(
            f"{what} list must be a list of names, got {type(names).__name__}")
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


_SELF_LOOP = "explicit self-loop rate at {}; the diagonal is implied"


def _indices(values) -> bool:
    """Whether all values are ints or numpy integers, not bools, by type."""
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
               for t in set(map(type, values)))


def _check_index(a, m: int, what: str, state: str) -> None:
    """Raise unless the action index a is an integer in 0..m-1."""
    if not _indices((a,)):
        raise ModelError(f"{what} action index {a!r} at state '{state}' is "
                         "not an integer")
    if not 0 <= a < m:
        raise ModelError(
            f"{what} action index {a} out of range at state '{state}'")


def _refuse_admissible(states: tuple, admissible: tuple, m: int) -> None:
    """Raise for the first state, in state order, whose admissible set is
    empty or holds a value that _check_index refuses."""
    for state, acts in zip(states, admissible):
        if not acts:
            raise ModelError(f"empty admissible set for state '{state}'")
        for a in acts:
            _check_index(a, m, "admissible", state)


@dataclass(frozen=True, eq=False)
class IndexedModel:
    """States, actions and per-state admissible action sets.

    The reduction keeps all three, so the continuous-time model and its
    discrete-time equivalent share this base: the name rules (non-empty
    lists of unique strings; non-empty admissible sets in range, None
    admitting every action), the admissible mask, name lookups, the policy
    check, equality and the name fields of their files.  Subclasses
    list their array fields in _ARRAYS; each is copied to a float array
    here, so the subclass checks and freezes an array no caller holds.
    """

    states: tuple
    actions: tuple
    admissible: tuple  # per state, sorted tuple of admissible action indices
    admissible_mask: np.ndarray = field(init=False, repr=False)

    _ARRAYS = ()

    def __post_init__(self):
        states = _unique_names(self.states, "state")
        actions = _unique_names(self.actions, "action")
        n, m = len(states), len(actions)
        if self.admissible is not None and not _indices(
                chain.from_iterable(self.admissible)):
            _refuse_admissible(states, self.admissible, m)
        admissible = ((tuple(range(m)),) * n if self.admissible is None
                      else tuple(tuple(sorted(set(acts)))
                                 for acts in self.admissible))
        if len(admissible) != n:
            raise ModelError(f"admissible sets given for {len(admissible)} "
                             f"states, model has {n}")
        # one scatter over flat indices, which ravel_multi_index checks
        sizes = list(map(len, admissible))
        if not all(sizes):
            _refuse_admissible(states, admissible, m)
        try:
            flat = np.ravel_multi_index(
                (np.arange(n).repeat(sizes),
                 np.array(list(chain.from_iterable(admissible)))), (n, m))
        except (ValueError, TypeError):  # out of range, or not an integer
            _refuse_admissible(states, admissible, m)
            raise
        mask = np.zeros((n, m), dtype=bool)
        mask.put(flat, True)
        mask.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "admissible", admissible)
        object.__setattr__(self, "admissible_mask", mask)
        for name in self._ARRAYS:  # copies: the caller keeps its own arrays
            object.__setattr__(self, name,
                               np.array(getattr(self, name), dtype=float))

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
        n, m = self.n_states, self.n_actions
        if len(policy.choice) != n:
            raise ModelError(
                f"policy covers {len(policy.choice)} states, model has {n}")
        choice = np.array(policy.choice)
        # the whole choice at once; only a failed check walks the states,
        # for the first offender
        try:
            admitted = np.count_nonzero(self.admissible_mask.ravel()[
                np.ravel_multi_index((np.arange(n), choice), (n, m))]) == n
        except (ValueError, TypeError):  # out of range, or not an integer
            admitted = False
        if not admitted or not _indices(policy.choice):
            for x, a in enumerate(policy.choice):
                _check_index(a, m, "policy", self.states[x])
                if a not in self.admissible[x]:
                    raise ModelError(
                        f"policy action '{self.actions[a]}' is not admissible"
                        f" at state '{self.states[x]}'")
        return np.asarray(choice, dtype=int)

    def _at(self, *index) -> str:
        """Names of a (state, action) or (state, action, successor)
        coordinate, as error messages print it."""
        axes = (self.states, self.actions, self.states)
        return str(tuple(axes[k][i] for k, i in enumerate(index)))

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
    """Continuous-time MDP, checked when it is built; immutable after.

    rates[x, a, y] is the jump rate from x to y (zero on the diagonal),
    costs[x, a] the cost rate; both must be finite and nonnegative.
    total_rates is cached.  Every total rate must be a float, and so must
    total rate + cost rate at every admissible pair: the reduction and the
    generator-form evaluator derive nothing from the rates and costs of a
    pair beyond that sum.
    """

    rates: np.ndarray  # (n_states, n_actions, n_states), diagonal zero
    costs: np.ndarray  # (n_states, n_actions)
    total_rates: np.ndarray = field(init=False, repr=False)  # (n, m)

    _ARRAYS = ("rates", "costs")

    def __post_init__(self):
        super().__post_init__()
        n, m = self.n_states, self.n_actions
        if self.rates.shape != (n, m, n) or self.costs.shape != (n, m):
            raise ModelError(
                f"rate/cost array shapes {self.rates.shape} and "
                f"{self.costs.shape} do not match {n} states and {m} actions")
        diag = np.argwhere(self.rates[np.arange(n), :, np.arange(n)] != 0.0)
        if len(diag):
            raise ModelError(_SELF_LOOP.format(self._at(*diag[0])))
        for what, arr in (("rate", self.rates), ("cost", self.costs)):
            bad = np.argwhere(~np.isfinite(arr) | (arr < 0.0))
            if len(bad):
                v, where = float(arr[tuple(bad[0])]), self._at(*bad[0])
                raise ModelError(
                    f"NaN {what} at {where}" if np.isnan(v)
                    else f"negative {what} at {where}: {v}" if v < 0.0
                    else f"infinite {what} at {where}")
        with np.errstate(over="ignore"):
            total = self.rates.sum(axis=2)
            gross = total + self.costs
        bad = np.argwhere(np.isinf(total))
        if len(bad):
            raise ModelError(
                f"total rate at {self._at(*bad[0])} is beyond the float range")
        bad = np.argwhere(self.admissible_mask & np.isinf(gross))
        if len(bad):
            raise ModelError(f"total rate + cost rate at {self._at(*bad[0])} "
                             "is beyond the float range")
        object.__setattr__(self, "total_rates", total)
        for arr in (self.rates, self.costs, total):
            arr.setflags(write=False)

    def to_dict(self) -> dict:
        """Canonical file representation; the entry tables are
        jsonio.Tables, one row per positive entry in (state, action,
        successor) order."""
        s, a = self.states, self.actions
        rates = Table(self.rates > 0.0, {"from": s, "action": a, "to": s},
                      "rate", self.rates)
        costs = Table(self.costs > 0.0, {"state": s, "action": a}, "rate",
                      self.costs)
        return {**self._names_dict(), "rates": rates, "costs": costs}


@dataclass(frozen=True)
class StationaryPolicy:
    """A fixed choice of one admissible action index per state."""

    choice: tuple

    def to_dict(self, model: CtmdpModel) -> dict:
        return {"policy": {model.states[x]: model.actions[a]
                           for x, a in enumerate(self.choice)}}


def parse_policy(model, data: dict) -> StationaryPolicy:
    """Parse {"policy": {state: action}}; solve reports work unchanged."""
    if not isinstance(data, dict) or "policy" not in data:
        raise ModelError('policy document must contain a "policy" mapping')
    mapping = data["policy"]
    if not isinstance(mapping, dict):
        raise ModelError('"policy" must map state names to action names')
    known = set(model.states)
    unknown = [name for name in mapping if name not in known]
    if unknown:
        raise ModelError(f"unknown state '{unknown[0]}' in policy")
    missing = [name for name in model.states if name not in mapping]
    if missing:
        raise ModelError(f"policy is missing state '{missing[0]}'")
    choice = tuple(model.action_index(mapping[name]) for name in model.states)
    policy = StationaryPolicy(choice)
    model.check_policy(policy)
    return policy


def _number(v) -> bool:
    """A JSON number: int or float, not bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int(v) -> bool:
    """A JSON integer: int, not bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _fits_float(v) -> bool:
    """Whether a JSON number converts to a float."""
    try:
        float(v)
    except OverflowError:
        return False
    return True


def _resolve(index: dict, names: list) -> list:
    """Indices of file names; None where a name is unknown."""
    try:
        return list(map(index.get, names))
    except TypeError:  # an unhashable name, which is never a string
        return [index.get(n) if isinstance(n, str) else None for n in names]


def _entries(raw_model: dict, lookups: tuple, key: str, fields: tuple,
             what: str) -> tuple:
    """Scatter the entries raw_model[key] of a model file into a dense
    array; returns the index arrays and the array.  lookups map the names of
    the coordinates `fields` to indices, in (state, action, successor)
    order.  Unknown names, non-numeric values and repeated coordinates are
    reported with their entry.

    The checks run on whole columns: one set of the types present shows
    that every entry is a dict and every value a number, names go straight
    from the entries through the lookups into index arrays, and only a
    failed check scans the entries one by one for the first offender.  An
    entry's coordinate is built only for its error message.
    """
    entries = raw_model.get(key, [])
    if not isinstance(entries, list):
        raise ModelError(f'"{key}" must be a list of entries')
    if not set(map(type, entries)) <= {dict}:  # a subclass or a non-mapping
        bad = [e for e in entries if not isinstance(e, dict)]
        if bad:
            raise ModelError(f"{key} entry {bad[0]!r} is not a mapping")

    def column(f: str):
        """e.get(f) of every entry e, each a dict or a dict subclass."""
        return map(dict.get, entries, repeat(f))

    def coord(i: int) -> tuple:
        return tuple(entries[i].get(f) for f in fields)

    n = len(entries)
    try:
        ids = tuple(np.fromiter(map(lookup.get, column(f)), np.intp, n)
                    for lookup, f in zip(lookups, fields))
    except TypeError:  # None for an unknown name, or an unhashable name
        names = [list(column(f)) for f in fields]
        ids = [_resolve(lookup, col) for lookup, col in zip(lookups, names)]
        i, k = min((col.index(None), k) for k, col in enumerate(ids)
                   if None in col)
        raise ModelError(f"unknown {'action' if k == 1 else 'state'} "
                         f"'{names[k][i]}' in {key} entry {coord(i)}") \
            from None
    values = list(column("rate"))
    if not set(map(type, values)) <= {float, int}:  # e.g. bool, None, str
        bad = [i for i, v in enumerate(values) if not _number(v)]
        if bad:
            raise ModelError(
                f"non-numeric {what} at {coord(bad[0])}: {values[bad[0]]!r}")
    dense = np.zeros(tuple(map(len, lookups)))
    _, first = np.unique(np.ravel_multi_index(ids, dense.shape),
                         return_index=True)
    if len(first) < n:
        i = np.setdiff1d(np.arange(n), first)[0]
        raise ModelError(f"duplicate {what} entry at {coord(i)}")
    try:
        dense[ids] = np.fromiter(values, float, n)
    except OverflowError:  # an int literal beyond the float range
        i = next(i for i, v in enumerate(values) if not _fits_float(v))
        raise ModelError(f"{what} at {coord(i)} is beyond the float range") \
            from None
    return ids, dense


def validate_model(raw_model) -> CtmdpModel:
    """Build a model from parsed JSON in the model file schema.

    Resolves the names of the admissible map and of the entries and
    scatters the entries into arrays; CtmdpModel checks the rest.  A
    CtmdpModel is returned as it is: it was checked when it was built.
    """
    if isinstance(raw_model, CtmdpModel):
        return raw_model
    if not isinstance(raw_model, dict):
        raise ModelError(f"expected a model mapping, got {type(raw_model).__name__}")
    names = IndexedModel(raw_model.get("states", []),
                         raw_model.get("actions", []), None)
    sidx = {s: i for i, s in enumerate(names.states)}
    aidx = {a: i for i, a in enumerate(names.actions)}

    adm_raw = raw_model.get("admissible")
    if adm_raw is None:
        adm_raw = {}
    if not isinstance(adm_raw, dict):
        raise ModelError('"admissible" must map state names to action lists')
    admissible = list(names.admissible)  # every action unless listed
    for s, acts in adm_raw.items():
        if s not in sidx:
            raise ModelError(f"unknown state '{s}' in admissible map")
        if acts is None:
            continue
        if not isinstance(acts, list):
            raise ModelError(
                f"admissible set of state '{s}' must be a list of action names")
        ids = _resolve(aidx, acts)
        if None in ids:
            raise ModelError(f"unknown action '{acts[ids.index(None)]}' in "
                             f"admissible set of state '{s}'")
        admissible[sidx[s]] = ids

    ids, rates = _entries(raw_model, (sidx, aidx, sidx), "rates",
                          ("from", "action", "to"), "rate")
    loops = np.flatnonzero(ids[0] == ids[2])
    if len(loops):
        i = loops[0]
        raise ModelError(_SELF_LOOP.format(names._at(ids[0][i], ids[1][i])))
    _, costs = _entries(raw_model, (sidx, aidx), "costs", ("state", "action"),
                        "cost")
    return CtmdpModel(states=names.states, actions=names.actions,
                      admissible=admissible, rates=rates, costs=costs)


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
    return _number(v) and np.isfinite(v)


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

    actions = ("a0",)
    if kind == "two_state":
        p = _require(params, {
            "q": (None, lambda v: _fin(v) and v > 0, "finite rate > 0"),
            "c": (None, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        states = ("absorb", "work")
        rates, costs = np.zeros((2, 1, 2)), np.zeros((2, 1))
        rates[1, 0, 0], costs[1, 0] = p["q"], p["c"]
    elif kind == "pure_birth":
        p = _require(params, {
            "N": (None, lambda v: _int(v) and 1 <= v <= 20, "int in 1..20"),
            "kappa": (1.0, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        N = p["N"]
        states = tuple(str(i) for i in range(N + 1))
        rates, costs = np.zeros((N + 1, 1, N + 1)), np.zeros((N + 1, 1))
        i = np.arange(N)
        rates[i, 0, i + 1] = 2.0 ** (i + 1)
        costs[i, 0] = p["kappa"]
    elif kind == "birth_death":
        p = _require(params, {
            "levels": (None, lambda v: _int(v) and 1 <= v <= 63,
                       "int in 1..63"),
            "birth": (None, lambda v: _fin(v) and v >= 0, "finite rate >= 0"),
            "death": (None, lambda v: _fin(v) and v > 0, "finite rate > 0"),
            "cost": (None, lambda v: _fin(v) and v >= 0, "finite cost >= 0"),
        }, kind)
        levels = p["levels"]
        states = tuple(str(i) for i in range(levels + 1))
        rates = np.zeros((levels + 1, 1, levels + 1))
        costs = np.zeros((levels + 1, 1))
        i = np.arange(1, levels + 1)
        rates[i, 0, i - 1] = p["death"]
        rates[i[:-1], 0, i[:-1] + 1] = p["birth"]
        costs[i, 0] = float(p["cost"]) * i
    else:
        p = _require(params, {
            "n": (None, lambda v: _int(v) and 2 <= v <= 64, "int in 2..64"),
            "m": (None, lambda v: _int(v) and 1 <= v <= 8, "int in 1..8"),
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
    return CtmdpModel(states=states, actions=actions, admissible=None,
                      rates=rates, costs=costs)
