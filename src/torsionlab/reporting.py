"""JSON interchange: rationals as "p/q" strings, matrices as string grids.

A result is converted as it is written.  ``view`` converts one level: a
Fraction to "p/q", or "p" when q = 1 (the form ``linalg.fr`` reads back),
a Mat and a ConnectionTensor to their grids of such strings, and a
Subspace to its {"ambient_dim", "dim", "basis"} object, whose lines are
built from the sparse rows one at a time.  ``dump`` views each node it
reaches and hands out the text piece by piece, with sorted keys, so no
copy of a whole report is held and identical jobs give identical bytes:
those of ``json.dumps(obj, sort_keys=True, indent=2)``, whose encoder runs
in Python once an indent is given.  ``dumps`` is dump into one string.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .engine import ConnectionTensor
from .linalg import Mat, Subspace


def mat_from_json(rows) -> Mat:
    """A matrix read from JSON, which must be a list of rows, each a list."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("a matrix must be a list of rows, each a list of rationals")
    return Mat(rows)


class _Line:
    """A basis line of a Subspace, kept as its sparse row until view builds it."""

    __slots__ = ("width", "row")

    def __init__(self, width, row):
        self.width, self.row = width, row

    def strings(self):
        line = ["0"] * self.width
        for c, x in self.row.items():
            line[c] = str(x)
        return line


def _grid(nabla):  # the grid gamma[i][j][k] of a connection
    n = nabla.n
    return [[list(map(str, nabla.gamma[(i * n + j) * n : (i * n + j + 1) * n])) for j in range(n)] for i in range(n)]


_VIEWS = {
    Fraction: str,
    Mat: lambda m: [list(map(str, row)) for row in m.data],
    ConnectionTensor: _grid,
    Subspace: lambda s: {"ambient_dim": s.ambient_dim, "dim": s.dim, "basis": [_Line(s.ambient_dim, r) for r in s.rows]},
    _Line: _Line.strings,
}


def view(value):
    """value converted one level for output, by its exact type; dicts,
    lists, tuples and every other value are returned as they are."""
    convert = _VIEWS.get(type(value))
    return value if convert is None else convert(value)


def subspace_to_json(s: Subspace):
    """view(s) with its basis lines built: dumps writes the same bytes for both."""
    obj = view(s)
    obj["basis"] = list(map(view, obj["basis"]))
    return obj


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, after view."""
    out = []
    dump(obj, out.append)
    return "".join(out)


def _key(key):
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dump(obj, write, newline="\n"):
    """Hand obj's text to write, a piece at a time, each node through view;
    newline is a line break plus obj's indentation.

    A list of strings, such as a basis line, is one piece, made by one
    join, which quotes the entries in C; every other scalar goes through
    json.dumps.  When no entry needs an escape, as for every basis line,
    the join quotes only the separators, which writes in half the time of
    quoting each entry.  The largest piece of a report is one basis line,
    so the writer never holds the report.
    """
    obj = view(obj)
    inner, items = newline + "  ", None
    if isinstance(obj, str):
        write(_quote(obj))
    elif not isinstance(obj, (dict, list, tuple)):
        write(json.dumps(obj))
    elif not obj:
        write("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep, close, items = "{" + inner, newline + "}", ((_key(key) + ": ", obj[key]) for key in sorted(obj))
    else:
        try:
            flat = "".join(obj)
        except TypeError:  # not all strings
            sep, close, items = "[" + inner, newline + "]", (("", x) for x in obj)
        else:
            if flat.isascii() and flat.isprintable() and '"' not in flat and "\\" not in flat:  # no entry needs an escape
                write("[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + newline + "]")
            else:
                write("[" + inner + ("," + inner).join(map(_quote, obj)) + newline + "]")
    if items is not None:
        for prefix, x in items:
            write(sep + prefix)
            dump(x, write, inner)
            sep = "," + inner
        write(close)
