"""validate_model checks entry tables in whole-column passes; on any entry
list it must build the same arrays, or raise the same first ModelError, as
the entry-by-entry checks it replaced, which `_reference_entries` keeps."""

import collections
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskctmdp import model
from riskctmdp.model import ModelError, validate_model


def _reference_entries(raw_model: dict, lookups: tuple, key: str,
                       fields: tuple, what: str) -> tuple:
    """model._entries before the column passes: every entry is tested on
    its own and every coordinate is built up front."""
    entries = raw_model.get(key, [])
    if not isinstance(entries, list):
        raise ModelError(f'"{key}" must be a list of entries')
    bad = [e for e in entries if not isinstance(e, dict)]
    if bad:
        raise ModelError(f"{key} entry {bad[0]!r} is not a mapping")
    names = [[e.get(f) for e in entries] for f in fields]
    coords = list(zip(*names))
    ids = [model._resolve(lookup, col) for lookup, col in zip(lookups, names)]
    missing = [(col.index(None), k) for k, col in enumerate(ids) if None in col]
    if missing:
        i, k = min(missing)
        raise ModelError(f"unknown {'action' if k == 1 else 'state'} "
                         f"'{names[k][i]}' in {key} entry {coords[i]}")
    values = [e.get("rate") for e in entries]
    bad = [i for i, v in enumerate(values)
           if type(v) not in (float, int) and not model._number(v)]
    if bad:
        raise ModelError(
            f"non-numeric {what} at {coords[bad[0]]}: {values[bad[0]]!r}")
    ids = tuple(np.array(col, dtype=np.intp) for col in ids)
    dense = np.zeros(tuple(map(len, lookups)))
    _, first = np.unique(np.ravel_multi_index(ids, dense.shape),
                         return_index=True)
    if len(first) < len(entries):
        i = np.setdiff1d(np.arange(len(entries)), first)[0]
        raise ModelError(f"duplicate {what} entry at {coords[i]}")
    try:
        dense[ids] = values
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not model._fits_float(v))
        raise ModelError(f"{what} at {coords[i]} is beyond the float range") \
            from None
    return ids, dense


STATES = ["s0", "s1", "s2"]
ACTIONS = ["a0", "a1"]


class _Sub(dict):
    pass


def _ordered(d):
    return collections.OrderedDict(d)


def _default(d):
    return collections.defaultdict(lambda: "s0", d)


names = st.one_of(
    st.sampled_from(STATES + ACTIONS),  # right or wrong axis
    st.sampled_from(["nowhere", "", "S0"]),
    st.none(), st.booleans(), st.integers(-2, 2),
    st.just(["s0"]), st.just({"s": 0}))
numbers = st.one_of(
    st.floats(0.0, 5.0), st.integers(0, 5),
    st.sampled_from([-1.0, -0.0, float("inf"), float("nan"), 10 ** 400,
                     -(10 ** 400), 2 ** 70]),
    st.floats(0.0, 5.0).map(np.float64),
    st.none(), st.booleans(), st.just("1.0"), st.just([1.0]),
    st.just({"v": 1.0}))


@st.composite
def entries(draw, fields):
    """One entry: mostly a dict of known names over fields plus "rate",
    now and then with a key missing or a bad name or value; sometimes a
    dict subclass or not a mapping at all.  Few names make repeated
    coordinates and self-loops common."""
    kind = draw(st.sampled_from(["dict"] * 12 + ["sub", "ordered", "default",
                                                  "other"]))
    if kind == "other":
        return draw(st.one_of(st.integers(), st.text(max_size=3), st.none(),
                              st.just(["s0", "a0"])))
    entry = {}
    for f in fields:
        fault = draw(st.integers(0, 39))
        if fault == 0:
            continue  # a missing key
        entry[f] = draw(names if fault == 1 else st.sampled_from(
            ACTIONS if f == "action" else STATES))
    fault = draw(st.integers(0, 19))
    if fault:
        entry["rate"] = draw(numbers if fault == 1 else st.floats(0.0, 5.0))
    wrap = {"dict": dict, "sub": _Sub, "ordered": _ordered,
            "default": _default}[kind]
    return wrap(entry)


@st.composite
def raw_models(draw):
    raw = {"states": STATES, "actions": ACTIONS}
    for key, fields in (("rates", ("from", "action", "to")),
                        ("costs", ("state", "action"))):
        if draw(st.integers(0, 19)):
            raw[key] = draw(st.lists(entries(fields), max_size=8))
        elif draw(st.booleans()):
            raw[key] = draw(st.one_of(st.none(), st.just({"from": "s0"}),
                                      st.just("rates")))
    return raw


def _outcome(raw):
    try:
        return validate_model(raw)
    except ModelError as exc:
        return f"ModelError: {exc}"


@settings(max_examples=400, deadline=None)
@given(raw_models())
def test_column_passes_match_the_entry_by_entry_checks(raw):
    got = _outcome(raw)
    with mock.patch.object(model, "_entries", _reference_entries):
        want = _outcome(raw)
    assert type(got) is type(want)
    assert got == want
    if isinstance(got, model.CtmdpModel):
        assert got.rates.tobytes() == want.rates.tobytes()
        assert got.costs.tobytes() == want.costs.tobytes()


def _valid_rates():
    return [{"from": "s1", "action": "a0", "to": "s0", "rate": 1.5},
            {"from": "s2", "action": "a1", "to": "s1", "rate": 2}]


def test_each_first_error_is_the_reference_error():
    """One fixed list per kind of fault, each after a valid entry."""
    faults = [
        7,
        {"from": "s1", "action": "a0", "to": "nowhere", "rate": 1.0},
        {"from": "s1", "action": "s0", "to": "s0", "rate": 1.0},
        {"action": "a0", "to": "s0", "rate": 1.0},
        {"from": ["s1"], "action": "a0", "to": "s0", "rate": 1.0},
        {"from": "s1", "action": "a0", "to": "s0"},
        {"from": "s1", "action": "a0", "to": "s0", "rate": True},
        {"from": "s1", "action": "a0", "to": "s0", "rate": "1"},
        {"from": "s1", "action": "a0", "to": "s0", "rate": {"v": 1}},
        {"from": "s1", "action": "a0", "to": "s0", "rate": 1e400 * 0},
        {"from": "s1", "action": "a0", "to": "s0", "rate": -1.0},
        {"from": "s1", "action": "a0", "to": "s1", "rate": 1.0},
        {"from": "s2", "action": "a1", "to": "s1", "rate": 3.0},
        {"from": "s1", "action": "a0", "to": "s0", "rate": 10 ** 400},
    ]
    for fault in faults:
        raw = {"states": STATES, "actions": ACTIONS,
               "rates": _valid_rates() + [fault]}
        got = _outcome(raw)
        with mock.patch.object(model, "_entries", _reference_entries):
            want = _outcome(raw)
        assert isinstance(got, str), fault
        assert got == want, fault


def test_numpy_floats_and_dict_subclasses_build_the_same_model():
    rates = [_Sub(e) for e in _valid_rates()]
    rates[0]["rate"] = np.float64(1.5)
    raw = {"states": STATES, "actions": ACTIONS, "rates": rates,
           "costs": [collections.OrderedDict(state="s1", action="a0",
                                             rate=np.float64(0.25))]}
    got = validate_model(raw)
    with mock.patch.object(model, "_entries", _reference_entries):
        want = validate_model(raw)
    assert got == want
    assert got.rates[1, 0, 0] == 1.5 and got.costs[1, 0] == 0.25
