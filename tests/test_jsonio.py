"""jsonio.dumps writes a Table column by column; the bytes must be those of
the item-by-item recursion writing the same rows as plain dicts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskctmdp import (CtmdpModel, DtmdpModel, build_equivalent_dtmdp,
                       jsonio, validate_model)
from riskctmdp.jsonio import Table


def _rows(obj):
    """obj with every Table replaced by its rows as plain dicts."""
    if isinstance(obj, Table):
        return list(obj)
    if isinstance(obj, dict):
        return {k: _rows(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rows(v) for v in obj]
    return obj


def _plain(obj) -> str:
    """dumps through _emit alone, every row a dict written item by item."""
    return jsonio.dumps(_rows(obj))


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.0, -3.0,
            2.2250738585072014e-308, 2.225073858507201e-308,
            1e16, 1e16 + 2, 9999999999999998.0, 1e17, 1e17 - 16,
            99999999999999984.0, 1.7976931348623157e308]
floats = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from(_SPECIAL),
    st.floats(min_value=-2.2250738585072014e-308,
              max_value=2.2250738585072014e-308),  # subnormals and zeros
    st.integers(-10 ** 18, 10 ** 18).map(float),  # around the .17g switch
)
names = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["s0", "a0", "é", "𝄞", "\x00", "\x1f", "\ud800", '"',
                     "\\", "{", "}", "%s", "\n"]),
)


def _grid(draw, shape, elements):
    """An array of the given shape drawn from elements (floats or bools)."""
    size = math.prod(shape)
    return np.array(draw(st.lists(elements, min_size=size, max_size=size))
                    ).reshape(shape)


@st.composite
def tables(draw):
    """A Table of 0 to 27 rows over 1 to 3 coordinates."""
    keys = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    key = draw(names.filter(lambda k: k not in keys))
    shape = tuple(draw(st.integers(1, 3)) for _ in keys)
    axes = {k: tuple(draw(st.lists(names, min_size=s, max_size=s)))
            for k, s in zip(keys, shape)}
    return Table(_grid(draw, shape, st.booleans()), axes, key,
                 _grid(draw, shape, floats))


def _nest(doc, path):
    """Wrap doc in dicts and lists, one level per entry of path."""
    for wrap in reversed(path):
        doc = {"k": doc, "z": 1} if wrap else [1.5, doc, "t"]
    return doc


@given(tables())
def test_tables_match_the_recursion(table):
    assert jsonio.dumps(table) == _plain(table)
    assert json.loads(jsonio.dumps(table)) == json.loads(_plain(table))
    assert len(list(table)) == len(table)


@given(tables(), tables(), st.lists(st.booleans(), max_size=4))
def test_nested_tables_match_the_recursion(rates, costs, path):
    doc = _nest({"rates": rates, "costs": costs}, path)
    assert jsonio.dumps(doc) == _plain(doc)


@pytest.mark.parametrize("rows", [0, 1])
def test_tables_of_no_row_and_one_row_match_the_recursion(rows):
    where = np.arange(3) < rows
    table = Table(where, {"state": ("a", "b", "c")}, "rate",
                  np.array([2.0, 0.5, 0.25]))
    assert len(table) == rows
    assert list(table) == [{"state": "a", "rate": 2.0}][:rows]
    assert jsonio.dumps(table) == _plain(table)
    assert jsonio.dumps({"t": table}) == _plain({"t": table})


@given(tables(), st.lists(st.booleans(), max_size=2))
def test_rows_hold_every_coordinate(table, path):
    assert all(list(row) == [*table.axes, table.key] for row in table)
    doc = _nest(table, path)
    assert jsonio.dumps(doc) == _plain(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | names,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(names, inner, max_size=3), max_leaves=8)


@given(st.lists(st.dictionaries(names, json_values, max_size=4),
                max_size=4))
def test_other_lists_take_the_recursion(rows):
    """Lists, dicts among them, are written item by item, in the bytes of
    json.dumps with indent 2 wherever no float is present."""
    assert jsonio.dumps(rows) == json.dumps(rows, indent=2) + "\n"


def test_log_cost_rows_have_no_to():
    """A DTMDP file holds one log-cost row per (state, action) of positive
    step cost, with no successor."""
    kernel = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
    table = DtmdpModel(["a", "b"], ["u", "w"], None, kernel,
                       [[0.5, 0.25], [0.0, 0.125]]).to_dict()["log_cost"]
    rows = [{"state": "a", "action": "u", "value": 0.5},
            {"state": "a", "action": "w", "value": 0.25},
            {"state": "b", "action": "w", "value": 0.125}]
    assert [list(row.items()) for row in table] == [
        list(row.items()) for row in rows]
    doc = {"log_cost": table, "tail": rows[1:]}
    assert jsonio.dumps(doc) == _plain(doc)


@pytest.mark.parametrize("where", [0, 1, -1])
def test_nan_in_a_table_raises(where):
    values = np.arange(5.0)
    values[where] = math.nan
    table = Table(np.ones(5, bool), {"from": tuple("abcde")}, "rate", values)
    for emit in (jsonio.dumps, _plain):
        with pytest.raises(ValueError, match="NaN cannot be serialized"):
            emit({"rates": table})


@pytest.mark.parametrize("where", [0, 2])
def test_non_string_key_in_a_table_raises(where):
    """where: the position of the key among the row's keys."""
    keys = ["from", "action", "rate"]
    keys[where] = 7
    table = Table(np.ones((2, 1), bool), {keys[0]: ("a", "b"),
                                          keys[1]: ("u",)},
                  keys[2], np.ones((2, 1)))
    for emit in (jsonio.dumps, _plain):
        with pytest.raises(TypeError, match="keys must be strings"):
            emit(table)


def test_an_object_of_another_type_raises():
    for emit in (jsonio.dumps, _plain):
        with pytest.raises(TypeError, match="cannot serialize object"):
            emit({"rates": [object()]})


# Model files: every table the models write goes through the column path,
# and the text reads back as the model.

@st.composite
def admissible(draw, n, m):
    if draw(st.booleans()):
        return None
    return [draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
            for _ in range(n)]


@st.composite
def ctmdps(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rate = np.abs(_grid(draw, (n, m, n), floats))
    rate[~np.isfinite(rate) | (rate > 1e300)] = 0.0  # sums stay finite
    rate *= _grid(draw, (n, m, n), st.booleans())
    rate[np.arange(n), :, np.arange(n)] = 0.0
    cost = np.abs(_grid(draw, (n, m), floats))
    # 1 + max cost + max total rate stays finite, as the model requires
    cost[~np.isfinite(cost) | (cost > 1e300)] = 1.0
    return CtmdpModel(
        states=draw(st.lists(names, min_size=n, max_size=n, unique=True)),
        actions=draw(st.lists(names, min_size=m, max_size=m, unique=True)),
        admissible=draw(admissible(n, m)), rates=rate, costs=cost)


@st.composite
def dtmdps(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    kernel = np.abs(_grid(draw, (n, m, n), floats))
    kernel[~np.isfinite(kernel) | (kernel > 1e300)] = 0.0
    kernel *= _grid(draw, (n, m, n), st.booleans())
    kernel[kernel.sum(axis=2) == 0.0] = 1.0
    kernel /= kernel.sum(axis=2, keepdims=True)
    log_cost = np.abs(_grid(draw, (n, m), floats))
    log_cost[~np.isfinite(log_cost) | (log_cost > 700)] = 2.0  # exp finite
    return DtmdpModel(
        draw(st.lists(names, min_size=n, max_size=n, unique=True)),
        draw(st.lists(names, min_size=m, max_size=m, unique=True)),
        draw(admissible(n, m)), kernel, log_cost)


def _read_dtmdp(doc, dtmdp):
    """The kernel and log-cost arrays of a DTMDP file's entries."""
    sidx = {s: i for i, s in enumerate(doc["states"])}
    aidx = {a: i for i, a in enumerate(doc["actions"])}
    kernel, log_cost = np.zeros_like(dtmdp.kernel), np.zeros_like(
        dtmdp.step_cost)
    for e in doc["kernel"]:
        kernel[sidx[e["from"]], aidx[e["action"]], sidx[e["to"]]] = e["prob"]
    for e in doc["log_cost"]:
        log_cost[sidx[e["state"]], aidx[e["action"]]] = e["value"]
    return kernel, log_cost


@given(ctmdps())
def test_model_files_match_the_recursion(model):
    doc = model.to_dict()
    assert isinstance(doc["rates"], Table) and isinstance(doc["costs"], Table)
    text = jsonio.dumps(doc)
    assert text == _plain(doc)
    assert validate_model(jsonio.loads(text)) == model


@given(dtmdps())
def test_dtmdp_files_match_the_recursion(dtmdp):
    doc = dtmdp.to_dict()
    assert isinstance(doc["kernel"], Table)
    assert isinstance(doc["log_cost"], Table)
    text = jsonio.dumps(doc)
    assert text == _plain(doc)
    kernel, log_cost = _read_dtmdp(jsonio.loads(text), dtmdp)
    assert np.array_equal(kernel, dtmdp.kernel)
    assert np.array_equal(log_cost, dtmdp.step_cost)


def test_dense_tables_pass_no_row_dict_to_emit(monkeypatch):
    """A model the size of the benchmark's dense one (256 states, 8
    actions, about 29 rates a pair): dumps meets two dicts, the document
    and its admissible map, and every entry table as one Table."""
    rng = np.random.default_rng(0)
    rate = rng.random((256, 8, 256)) * (rng.random((256, 8, 256)) < 0.11)
    rate[np.arange(256), :, np.arange(256)] = 0.0
    model = CtmdpModel(
        states=tuple(f"s{i}" for i in range(256)),
        actions=tuple(f"a{j}" for j in range(8)), admissible=None,
        rates=rate, costs=0.2 * rng.random((256, 8)) * rate.sum(axis=2))
    emit, kinds = jsonio._emit, []

    def counting(obj, *args):
        kinds.append(type(obj))
        return emit(obj, *args)
    monkeypatch.setattr(jsonio, "_emit", counting)
    for doc, tables in ((model.to_dict(), ("rates", "costs")),
                        (build_equivalent_dtmdp(model).to_dict(),
                         ("kernel", "log_cost"))):
        kinds.clear()
        jsonio.dumps(doc)
        assert kinds.count(dict) == 2
        assert kinds.count(Table) == 2
        assert all(isinstance(doc[name], Table) for name in tables)
    assert len(model.to_dict()["rates"]) > 50_000
