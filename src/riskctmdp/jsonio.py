"""Canonical JSON emission for reports and model files.

Floats are rendered with 17 significant digits (lossless for doubles) and
infinities as the string "inf", so rerunning a command yields byte-identical
documents and round-trips recover the exact values.

The bytes are those of the recursion `_emit`: two-space indent, one item
per line, `json.dumps` for strings and keys, `format_float` for floats; a
NaN raises ValueError and a non-string key TypeError.  Model files and
reports hold large entry tables (one row per nonzero rate, cost, kernel or
log-cost entry), so `dumps` writes those in whole-column passes: one set
of the row types and one of the rows' key tuples decide the shape, each
distinct name is encoded once, and the floats of a column are formatted
in one map, numpy picking out the few texts that need ".0" or quotes.  An
entry table is a list of at least two dicts with the same non-empty keys
in the same order whose values are all exact `str` or exact `float`, each
column of one kind.  Every other list (mixed key sets, ints, bools, None,
nested values, numpy scalars) goes through `_emit` item by item; the
bytes are the same either way.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from json.encoder import encode_basestring_ascii  # json.dumps's str bytes
from operator import itemgetter

import numpy as np


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
    texts = list(map(float.__format__, col, repeat(".17g")))
    # the texts with no "." or "e": integral values below 1e17 (".17g"
    # writes 1e17 and above with an exponent), infinities and NaN
    x = np.fromiter(col, float, len(col))
    fix = ((x == np.trunc(x)) & (np.abs(x) < 1e17)) | ~np.isfinite(x)
    for i in np.flatnonzero(fix).tolist():
        texts[i] = format_float(col[i])
    return texts


def _str_column(col: list, prefix: str) -> list:
    """prefix plus json.dumps of every value of a column of exact strs."""
    encoded = {s: prefix + encode_basestring_ascii(s) for s in set(col)}
    return list(map(encoded.__getitem__, col))


def _emit_table(rows, indent: int, pieces: list) -> bool:
    """Emit rows as an entry table, in the bytes of _emit; returns False,
    having emitted nothing, when rows is not an entry table."""
    if len(rows) < 2 or set(map(type, rows)) != {dict}:
        return False
    shapes = set(map(tuple, rows))  # the keys of each row, in order
    keys = shapes.pop()
    if shapes or not keys or any(type(k) is not str for k in keys):
        return False
    # each row is, per column, the literal that leads to the value and the
    # value's text, then `end`; a str column carries its literal in each
    # text, made once per distinct value, a float column has its own slot
    pad = "  " * (indent + 1)
    names = [encode_basestring_ascii(k) + ": " for k in keys]
    lits = ([f"{pad}{{\n{pad}  {names[0]}"]
            + [f",\n{pad}  {name}" for name in names[1:]])
    end = f"\n{pad}}}"
    n = len(rows)
    slots = []
    for lit, key in zip(lits, keys):
        col = list(map(itemgetter(key), rows))
        kinds = set(map(type, col))
        if kinds == {str}:
            slots.append(_str_column(col, lit))
        elif kinds == {float}:
            slots += [[lit] * n, _float_column(col)]
        else:
            return False
    # the rows, joined by ",\n", interleaved into one flat list of pieces
    width = len(slots) + 1
    flat = [end + ",\n"] * (n * width)
    for j, slot in enumerate(slots):
        flat[j::width] = slot
    flat[-1] = end
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
            pieces.append(f"{pad}  {encode_basestring_ascii(k)}: ")
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
        pieces.append(encode_basestring_ascii(obj))
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
