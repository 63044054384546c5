"""Canonical JSON emission for reports and model files.

Floats are rendered with 17 significant digits (lossless for doubles) and
infinities as the string "inf", so rerunning a command yields byte-identical
documents and round-trips recover the exact values.

The bytes are those of the recursion `_emit`: two-space indent, one item
per line, `json.dumps` for strings and keys, `format_float` for floats; a
NaN raises ValueError and a non-string key TypeError.  Model files and
reports hold large entry tables (one row per nonzero rate, cost, kernel or
log-cost entry), so `dumps` writes those column by column in time linear
in the entry count.  An entry table is a list of at least two dicts with
the same non-empty keys in the same order whose values are all exact
`str` or exact `float`, each column of one kind.  Every other list (mixed
key sets, ints, bools, None, nested values, numpy scalars) goes through
`_emit` item by item; the bytes are the same either way.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii  # json.dumps's str bytes
from operator import itemgetter

_NON_FINITE = {"inf": '"inf"', "-inf": '"-inf"'}


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN cannot be serialized")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    text = format(x, ".17g")
    # keep integral floats recognizable as numbers with a fractional part
    if "e" not in text and "E" not in text and "." not in text:
        text += ".0"
    return text


def _float_column(col: list) -> list:
    """format_float of every value of a column of exact floats."""
    texts = list(map("%.17g".__mod__, col))  # the bytes of format(x, ".17g")
    # integral values, infinities and NaN are the texts with no "." or "e"
    for i, text in enumerate(texts):
        if "." not in text and "e" not in text:
            if text == "nan":
                raise ValueError("NaN cannot be serialized")
            texts[i] = _NON_FINITE.get(text) or text + ".0"
    return texts


def _str_column(col: list) -> list:
    """json.dumps of every value of a column of exact strs."""
    encoded = {s: encode_basestring_ascii(s) for s in set(col)}
    return list(map(encoded.__getitem__, col))


_COLUMN = {str: _str_column, float: _float_column}


def _emit_table(rows, indent: int, pieces: list) -> bool:
    """Emit rows as an entry table, in the bytes of _emit; returns False,
    having emitted nothing, when rows is not an entry table."""
    keys = tuple(rows[0]) if type(rows[0]) is dict else ()
    if (len(rows) < 2 or not keys
            or any(type(k) is not str for k in keys)
            or not all(type(row) is dict and tuple(row) == keys
                       for row in rows)):
        return False
    columns = []
    for key in keys:
        col = list(map(itemgetter(key), rows))
        kinds = set(map(type, col))
        if len(kinds) != 1 or kinds.isdisjoint(_COLUMN):
            return False
        columns.append(_COLUMN[kinds.pop()](col))
    # each row is lits[0] col[0] lits[1] ... col[-1] lits[-1], rows joined
    # by ",\n"; the rows are interleaved into one flat list of pieces
    pad = "  " * (indent + 1)
    names = [encode_basestring_ascii(k) + ": " for k in keys]
    lits = ([f"{pad}{{\n{pad}  {names[0]}"]
            + [f",\n{pad}  {name}" for name in names[1:]]
            + [f"\n{pad}}}"])
    n, width = len(rows), 2 * len(keys) + 1
    flat = [lits[-1] + ",\n"] * (n * width)
    for j, col in enumerate(columns):
        flat[2 * j::width] = [lits[j]] * n
        flat[2 * j + 1::width] = col
    flat[-1] = lits[-1]
    pieces.append("[\n")
    pieces += flat
    pieces.append("\n" + "  " * indent + "]")
    return True


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            pieces.append(f"{pad}  {json.dumps(k)}: ")
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        if _emit_table(obj, indent, pieces):
            return
        pieces.append("[\n")
        for i, v in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif obj is None:
        pieces.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    pieces: list = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def loads(text: str):
    return json.loads(text)
