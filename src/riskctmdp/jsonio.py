"""Canonical JSON emission for reports and model files.

The bytes are those of the recursion `_emit`: two-space indent, one item
per line, `json.dumps` for strings and keys, floats with 17 significant
digits (lossless for doubles) and infinities as the string "inf"
(`format_float`), so rerunning a command yields byte-identical documents
and round-trips recover the exact values; a NaN raises ValueError and a
non-string key TypeError.  Entry tables (one row per nonzero rate, cost,
kernel or log-cost entry) come from the models as a `Table` of index
arrays and a float array, which `dumps` writes by columns: each name's
text is made once and gathered by index, and a column's floats are
formatted in one pass.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii  # json.dumps's str bytes

import numpy as np


class Table:
    """An entry table by columns: one row per true entry of the mask
    `where`, in C order, read as a sequence of row dicts.  `axes` maps the
    key of each coordinate, in row order, to the names along its axis;
    `key` names the column of `values` at the entries.  With two or more
    coordinates, the rows where the mask `has` is False leave out the last.
    """

    def __init__(self, where, axes: dict, key: str, values, has=None):
        self.index = np.nonzero(where)
        self.axes = axes
        self.key = key
        self.values = values[self.index]
        self.has = None if has is None else has[self.index]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> dict:
        row = {k: names[ix[i]] for (k, names), ix in zip(self.axes.items(),
                                                         self.index)}
        if self.has is not None and not self.has[i]:
            row.popitem()
        row[self.key] = float(self.values[i])
        return row


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


def _float_column(x: np.ndarray) -> list:
    """format_float of every value of a float array."""
    texts = (("%.17g\n" * len(x)) % tuple(x.tolist())).split("\n")[:-1]
    # the texts with no "." or "e": integral values below 1e17 (".17g"
    # writes 1e17 and above with an exponent), infinities and NaN
    fix = ((x == np.trunc(x)) & (np.abs(x) < 1e17)) | ~np.isfinite(x)
    for i in np.flatnonzero(fix).tolist():
        texts[i] = format_float(float(x[i]))
    return texts


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError(f"JSON object keys must be strings, got {k!r}")
    return encode_basestring_ascii(k) + ": "


def _emit_table(table: Table, indent: int, pieces: list) -> None:
    # a row is, per coordinate, its key's literal and its name's text, made
    # once per name, then the literal and text of its value, then `end`
    pad = "  " * (indent + 1)
    lits = [f",\n{pad}  {_key(k)}" for k in (*table.axes, table.key)]
    lits[0] = pad + "{" + lits[0][1:]  # a row opens where the rest have ","
    slots = [np.array([lit + encode_basestring_ascii(s) for s in names],
                      dtype=object)[ix]
             for lit, names, ix in zip(lits, table.axes.values(), table.index)]
    if table.has is not None:
        slots[-1][~table.has] = ""
    slots = [slot.tolist() for slot in slots] + [[lits[-1]] * len(table),
                                                 _float_column(table.values)]
    # the rows, joined by ",\n", interleaved into one flat list of pieces
    end = f"\n{pad}}}"
    width = len(slots) + 1
    flat = [end + ",\n"] * (len(table) * width)
    for j, slot in enumerate(slots):
        flat[j::width] = slot
    flat[-1] = end
    pieces.append("[\n")
    pieces += flat
    pieces.append("\n" + "  " * indent + "]")


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f"{pad}  {_key(k)}")
            _emit(v, indent + 1, pieces)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple, Table)):
        if not obj:
            pieces.append("[]")
            return
        if isinstance(obj, Table):
            return _emit_table(obj, indent, pieces)
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
