"""JSON interchange: rationals as "p/q" strings, matrices as string grids.

``dumps`` writes every payload with sorted keys, so identical jobs produce
byte-identical output.  Its output is exactly
``json.dumps(obj, sort_keys=True, indent=2)`` (ASCII only, non-ASCII and
control characters escaped), for every value that call accepts; it is
not the stdlib call because that call's encoder runs in Python once an
indent is given.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .linalg import Mat, Subspace, fr


def rational_to_str(x) -> str:
    x = fr(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def mat_to_json(m: Mat):
    return [[rational_to_str(x) for x in row] for row in m.data]


def mat_from_json(rows) -> Mat:
    """A matrix read from JSON, which must be a list of rows, each a list."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("a matrix must be a list of rows, each a list of rationals")
    return Mat(rows)


def vector_to_json(v):
    return [rational_to_str(x) for x in v]


def subspace_to_json(s: Subspace):
    basis = []
    for row in s.rows:
        line = ["0"] * s.ambient_dim
        for c, x in row.items():
            line[c] = rational_to_str(x)
        basis.append(line)
    return {"ambient_dim": s.ambient_dim, "dim": s.dim, "basis": basis}


def tensor3_to_json(gamma, n):
    return [
        [[rational_to_str(gamma[i * n * n + j * n + k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def certificate_to_json(cert, n):
    return {
        "kind": cert.kind,
        "nabla": tensor3_to_json(cert.nabla.gamma, n),
        "residuals": {k: rational_to_str(v) for k, v in cert.residuals.items()},
    }


def refusal_to_json(refusal):
    return {
        "refused": True,
        "reason": refusal.reason,
        "residual": vector_to_json(refusal.residual),
    }


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
