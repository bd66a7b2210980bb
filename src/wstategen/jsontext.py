"""Indented JSON text for reports, with the large lists written by chunk writers.

A *frame* is a JSON object tree in which some values are chunk writers:
callables ``chunks(depth)`` returning the pieces of the text of one large
list at nesting ``depth`` as the indent-2 encoder writes it: items at indent
``depth + 1``, the closing bracket at ``depth``, and ``[]`` when empty.
:func:`dumps` writes a frame, the small fields through ``json.dumps`` one
scalar at a time; the JSON tree of a frame is the parse of that text. The
stdlib's ``indent=`` encoder is pure Python before CPython 3.14, so building
and walking a tree of one dict per Fock-state term costs several times more
than the run that made the terms.
"""
from __future__ import annotations

import json

import numpy as np


def dumps(frame) -> str:
    """The indent-2 JSON text of ``frame`` plus a newline, each chunk writer writing its list."""
    out: list[str] = []
    _write(frame, 0, out)
    out.append("\n")
    return "".join(out)


def _write(obj, depth: int, out: list[str]) -> None:
    """Append the pieces of the text of ``obj`` at nesting ``depth`` to ``out``."""
    if callable(obj):
        out += obj(depth)
        return
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(json.dumps(obj))  # a scalar, {} or []
        return
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        closing, items = "}", [(f"{json.dumps(k)}: ", v) for k, v in obj.items()]
        sep = "{" + pad
    else:
        closing, items = "]", [("", v) for v in obj]
        sep = "[" + pad
    for key, value in items:
        out.append(sep + key)
        _write(value, depth + 1, out)
        sep = "," + pad
    out.append(pad[:-2] + closing)


def float_reprs(x: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``x`` in C order, as an object array, formatted once
    per bit pattern, so -0.0 stays."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64).ravel()
    keys, index = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
    return texts[index]


def expand(frame):
    """The JSON tree of a frame: the parse of its text."""
    return json.loads(dumps(frame))
