"""jsonio.dumps writes entry tables column by column; the bytes must be
those of the item-by-item recursion, which the reference below forces by
turning the table path off."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskctmdp import jsonio


def _plain(obj) -> str:
    """dumps through _emit alone, every list item by item."""
    with mock.patch.object(jsonio, "_emit_table", lambda *args: False):
        return jsonio.dumps(obj)


def _is_table(rows) -> bool:
    return jsonio._emit_table(rows, 0, [])


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


@st.composite
def tables(draw, min_rows=1):
    keys = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from([names, floats])) for _ in keys]
    n = draw(st.integers(min_rows, 12))
    return [{k: draw(kind) for k, kind in zip(keys, kinds)} for _ in range(n)]


def _nest(doc, path):
    """Wrap doc in dicts and lists, one level per entry of path."""
    for wrap in reversed(path):
        doc = {"k": doc, "z": 1} if wrap else [1.5, doc, "t"]
    return doc


@given(tables())
def test_tables_match_the_recursion(rows):
    assert jsonio.dumps(rows) == _plain(rows)
    assert _is_table(rows) == (len(rows) > 1)
    assert json.loads(jsonio.dumps(rows)) == json.loads(_plain(rows))


@given(tables(), st.lists(st.booleans(), max_size=4))
def test_nested_tables_match_the_recursion(rows, path):
    doc = _nest({"rates": rows, "costs": rows[:1]}, path)
    assert jsonio.dumps(doc) == _plain(doc)


def test_one_row_table_takes_the_recursion():
    rows = [{"state": "a", "rate": 1.0}]
    assert not _is_table(rows)
    assert jsonio.dumps(rows) == _plain(rows)


@given(tables(min_rows=2), st.data())
def test_rows_with_other_keys_fall_back(rows, data):
    i = data.draw(st.integers(1, len(rows) - 1))
    row = rows[i]
    changed = data.draw(st.sampled_from(["reversed", "dropped", "added"]))
    if changed == "reversed" and len(row) > 1:
        rows[i] = dict(reversed(list(row.items())))
    elif changed == "dropped" and len(row) > 1:
        rows[i] = dict(list(row.items())[1:])
    else:
        rows[i] = {**row, "\x00extra": 1.0}
    assert not _is_table(rows)
    assert jsonio.dumps(rows) == _plain(rows)


@given(tables(min_rows=2), st.data())
def test_columns_with_other_kinds_fall_back(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    key = data.draw(st.sampled_from(list(rows[i])))
    rows[i][key] = data.draw(st.one_of(
        st.integers(-10 ** 30, 10 ** 30), st.booleans(), st.none(),
        floats.map(np.float64), st.just([1.0]), st.just({"x": 2.0})))
    assert not _is_table(rows)
    assert jsonio.dumps(rows) == _plain(rows)


def test_log_cost_rows_with_and_without_to():
    rows = [{"state": "a", "action": "u", "to": "b", "value": 0.5},
            {"state": "a", "action": "w", "value": 0.25},
            {"state": "b", "action": "w", "value": 0.125}]
    assert not _is_table(rows)
    assert _is_table(rows[1:])
    doc = {"log_cost": rows, "tail": rows[1:]}
    assert jsonio.dumps(doc) == _plain(doc)


@pytest.mark.parametrize("where", [0, 1, -1])
def test_nan_in_a_table_raises(where):
    rows = [{"from": "a", "rate": float(i)} for i in range(5)]
    rows[where]["rate"] = math.nan
    for emit in (jsonio.dumps, _plain):
        with pytest.raises(ValueError, match="NaN cannot be serialized"):
            emit({"rates": rows})


@pytest.mark.parametrize("where", [0, 2])
def test_non_string_key_in_a_table_raises(where):
    rows = [{"from": "a", "rate": 1.0} for _ in range(3)]
    rows[where] = {"from": "a", 7: 1.0}
    for emit in (jsonio.dumps, _plain):
        with pytest.raises(TypeError, match="keys must be strings"):
            emit(rows)
