"""Indented JSON text for reports, with the large lists written from templates.

A *frame* is a JSON object tree in which some values are :class:`Template`
lists. :func:`dumps` writes a frame as the exact text of
``json.dumps(tree, indent=2) + "\\n"``, where ``tree = expand(frame)``: the
small fields go through ``json.dumps`` one scalar at a time and each
template writes its own list at the nesting depth where it sits. The
stdlib's ``indent=`` encoder is pure Python before CPython 3.14, so
building and walking a tree of one dict per Fock-state term costs several
times more than the run that made the terms.
"""
from __future__ import annotations

import json
from typing import Callable


class Template:
    """A large JSON list: ``chunks(depth)`` writes it, ``tree()`` builds it.

    ``chunks(depth)`` returns strings whose concatenation is what the
    indent-2 encoder writes for ``tree()`` when the list is a value at
    nesting ``depth``: items at indent ``depth + 1``, the closing bracket
    at ``depth``, and ``[]`` for an empty list.
    """

    __slots__ = ("chunks", "tree")

    def __init__(self, chunks: Callable[[int], list[str]], tree: Callable[[], list]):
        self.chunks = chunks
        self.tree = tree


def dumps(frame) -> str:
    """``json.dumps(expand(frame), indent=2) + "\\n"``, without building the large lists."""
    out: list[str] = []
    _write(frame, 0, out)
    out.append("\n")
    return "".join(out)


def _write(obj, depth: int, out: list[str]) -> None:
    """Append the pieces of the text of ``obj`` at nesting ``depth`` to ``out``."""
    if isinstance(obj, Template):
        out += obj.chunks(depth)
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


def expand(frame):
    """The plain JSON tree of a frame: every template replaced by its list."""
    if isinstance(frame, Template):
        return frame.tree()
    if isinstance(frame, dict):
        return {k: expand(v) for k, v in frame.items()}
    if isinstance(frame, (list, tuple)):
        return [expand(v) for v in frame]
    return frame
