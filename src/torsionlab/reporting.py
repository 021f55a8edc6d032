"""JSON interchange: rationals as "p/q" strings, matrices as string grids.

All payloads are emitted with sorted keys so identical jobs produce
byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .linalg import Mat, Subspace, fr


def rational_to_str(x) -> str:
    x = fr(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return fr(s)
    return Fraction(str(s))


def mat_to_json(m: Mat):
    return [[rational_to_str(x) for x in row] for row in m.data]


def mat_from_json(rows) -> Mat:
    return Mat([[rational_from_str(x) for x in row] for row in rows])


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
    return json.dumps(obj, sort_keys=True, indent=2)
