"""JSON interchange: rationals as "p/q" strings, matrices as string grids.

``to_json`` is the one conversion of results for output: it maps every
Fraction, Mat, Subspace and ConnectionTensor inside dicts, lists and
tuples to its JSON form, so commands hand over raw results.  A Fraction
prints as "p/q", or "p" when q = 1, which is the form ``linalg.fr``
reads back.  ``dumps`` writes every payload with sorted keys, so
identical jobs produce byte-identical output.  Its output is exactly
``json.dumps(obj, sort_keys=True, indent=2)`` (ASCII only, non-ASCII and
control characters escaped), for every value that call accepts; it is
not the stdlib call because that call's encoder runs in Python once an
indent is given.
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


def subspace_to_json(s: Subspace):
    basis = []
    for row in s.rows:
        line = ["0"] * s.ambient_dim
        for c, x in row.items():
            line[c] = str(x)
        basis.append(line)
    return {"ambient_dim": s.ambient_dim, "dim": s.dim, "basis": basis}


def to_json(value):
    """value with each Fraction as "p/q", each Mat and ConnectionTensor as
    its grid of such strings and each Subspace as subspace_to_json,
    through dicts, lists and tuples; any other value is returned as is."""
    if isinstance(value, ConnectionTensor):  # the grid gamma[i][j][k]
        n, gamma = value.n, value.gamma
        value = [[gamma[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    elif isinstance(value, Mat):
        value = value.data
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Subspace):
        return subspace_to_json(value)
    if isinstance(value, dict):
        return {key: to_json(x) for key, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(x) for x in value]
    return value


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _plain(text):
    """Whether text needs no JSON escape: printable ASCII, no quote or backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _key(key):
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, newline, out):
    """Append obj's text to out; newline is a line break plus obj's indentation.

    A list of strings, such as a basis line, is written by one join,
    which quotes the entries in C; every other scalar goes through
    json.dumps.  When no entry needs an escape, as for every basis
    line, the join quotes only the separators: that writes in half the
    time of quoting each entry and makes no quoted copy of the entries
    (a cold gl(12) space --with-bases peaks at 129 MB, not 165 MB).
    """
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + _key(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        try:
            flat = "".join(obj)
        except TypeError:  # not all strings
            pass
        else:
            if _plain(flat):  # no entry needs an escape: quote the separators
                out.append("[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + newline + "]")
            else:
                out.append("[" + inner + ("," + inner).join(map(_quote, obj)) + newline + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(obj))
