"""Rank bounds for matrix subspaces: witnesses and exact certificates.

A witness of rank <= r refutes (super-)ellipticity and is verified
exactly.  Certification that no nonzero element of rank <= r exists is
three-valued: a structural argument (a commuting hypercomplex triple
makes image dimensions multiples of four), an exhaustive algebraic
solve of the minor equations for spans of dimension <= 3, or an honest
"unknown".  The exhaustive path is one loop over projective charts:
chart t sets x_t = 1, x_{t+1} = y, x_{t+2} = z (as far as the span
goes) and the earlier coordinates to 0, and takes the minors of that
pencil in Q[y][z] (the `zp_*` lists of `polynomials`) by cofactor
expansion.  A z-free system is decided in y by the gcd of its minors.
Otherwise the minors are reduced to a sum of squares P, z-multiplicity
is removed with a primitive-PRS gcd, and a Sylvester resultant projects
to y, its real roots counted by Sturm chains; only rational candidate
roots are substituted back, so irrational candidate fibers downgrade
the verdict to unknown instead of guessing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebras import LinearSubalgebra
from .polynomials import (
    Poly,
    count_real_roots,
    poly_gcd,
    rational_roots,
    zp_add,
    zp_derivative,
    zp_eval_y,
    zp_exact_div,
    zp_gcd,
    zp_mul,
    zp_primitive,
    zp_resultant,
    zp_scale,
    zp_sub,
)


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = []
    for j in range(len(rows)):
        minor = [[row[k] for k in range(len(rows)) if k != j] for row in rows[1:]]
        term = zp_mul(rows[0][j], _cofactor_det(minor))
        acc = zp_add(acc, term) if j % 2 == 0 else zp_sub(acc, term)
    return acc


# -- real-zero decisions -----------------------------------------------------


def _decide_univariate(polys):
    """Common real zeros of univariate Polys: ('empty'|'witness'|'unknown', data)."""
    g = poly_gcd(*polys)
    if g.is_zero():
        return "witness", Fraction(0)
    if g.degree == 0:
        return "empty", None
    roots = rational_roots(g)
    if roots:
        return "witness", roots[0][0]
    if count_real_roots(g) == 0:
        return "empty", None
    return "unknown", None


def _on_line(decision):
    """A decision in y lifted to the points (y, 0)."""
    verdict, y0 = decision
    return verdict, (y0, Fraction(0)) if verdict == "witness" else None


def _decide_bivariate(polys):
    """Common real zeros in Q[y][z]: ('empty'|'witness (y,z)'|'unknown', data).

    A z-free system is decided in y by the gcd of its polys."""
    polys = [p for p in polys if p]
    if all(len(p) == 1 for p in polys):
        return _on_line(_decide_univariate([p[0] for p in polys]))
    if any(len(p) == 1 and p[0].degree == 0 for p in polys):
        return "empty", None  # a nonzero constant in the system
    big = []
    for p in polys:
        big = zp_add(big, zp_mul(p, p))
    cont, prim = zp_primitive(big)
    # a real root of the content gives a whole line of zeros
    verdict, data = _on_line(_decide_univariate([cont]))
    if verdict != "empty":
        return verdict, data
    sf = zp_exact_div(prim, zp_gcd(prim, zp_derivative(prim)))
    elim = zp_resultant(sf, zp_derivative(sf)) * sf[-1]
    if elim.is_zero():
        return "unknown", None
    elim_roots = rational_roots(elim)
    n_real = count_real_roots(elim)
    for y0, _ in elim_roots:
        verdict, z0 = _decide_univariate([zp_eval_y(p, y0) for p in polys])
        if verdict == "witness":
            return "witness", (y0, z0)
        if verdict == "unknown":
            return "unknown", None
    if n_real > len(elim_roots):
        return "unknown", None
    return "empty", None


# -- public operations -------------------------------------------------------


GRID_RANGE = 2
GRID_BUDGET = 20000


def _rank_bound(r):
    """r, once it is an int >= 0 (a bool is not)."""
    if type(r) is not int or r < 0:
        raise ValueError(f"rank bound r must be an integer >= 0, not {r!r}")
    return r


def low_rank_witness(h: LinearSubalgebra, r):
    """Grid search for a nonzero element of rank <= r; None within GRID_BUDGET.

    A returned witness is exact: (coeffs, matrix) with rank verified.
    Absence is not a proof; see classify_low_rank for certificates.
    r is an int >= 0; no nonzero element has rank 0, so r = 0 gives None.
    """
    if _rank_bound(r) == 0:
        return None
    for tried, coeffs in enumerate(_sign_normalized_grid(h.dim, GRID_RANGE), start=1):
        if tried > GRID_BUDGET:
            return None
        m = h.element([Fraction(c) for c in coeffs])
        if 0 < m.rank() <= r:
            return tuple(Fraction(c) for c in coeffs), m
    return None


def _sign_normalized_grid(dim, coeff_range):
    """The nonzero tuples over [-coeff_range, coeff_range] whose first
    nonzero entry is positive, in lexicographic order: a zero prefix
    (longest first), a positive leading entry, then a free tail."""
    grid = range(-coeff_range, coeff_range + 1)
    for lead in reversed(range(dim)):
        for c in range(1, coeff_range + 1):
            for tail in itertools.product(grid, repeat=dim - lead - 1):
                yield (0,) * lead + (c,) + tail


def _minors(mat_entries, size, n):
    out = []
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.combinations(range(n), size):
            out.append(_cofactor_det([[mat_entries[i][j] for j in cols] for i in rows]))
    return out


def _pencil(h, active, n):
    """Entries of sum_t x_t B_{active[t]} with x = (1, y, z)[:len(active)]."""
    monos = [[Poly([1])], [Poly([0, 1])], [Poly([]), Poly([1])]]
    entries = [[[] for _ in range(n)] for _ in range(n)]
    for t, idx in enumerate(active):
        for flat, x in h.rows[idx].items():
            i, j = divmod(flat, n)
            entries[i][j] = zp_add(entries[i][j], zp_scale(monos[t], x))
    return entries


def classify_low_rank(h: LinearSubalgebra, r):
    """Decide 'h contains a nonzero element of rank <= r'.

    Returns {"status": "refuted"|"certified"|"unknown", ...}.  refuted
    carries an exact witness; certified carries the method (structural
    quaternionic argument, or the exhaustive minor solve for dim <= 3).
    r is an int >= 0; no nonzero element has rank 0, so r = 0 is certified.
    """
    if _rank_bound(r) == 0:
        return {"status": "certified", "method": "rank-0"}
    found = low_rank_witness(h, r)
    if found is not None:
        coeffs, mat = found
        return {"status": "refuted", "witness_coeffs": coeffs, "witness": mat, "method": "grid"}
    if r <= 3 and h.preserves("hypercomplex"):
        return {"status": "certified", "method": "quaternionic-image"}
    if h.dim <= 3:
        verdict = _exhaustive_small_dim(h, r)
        if verdict == "empty":
            return {"status": "certified", "method": "minor-variety-empty"}
        if isinstance(verdict, tuple):
            coeffs = verdict
            mat = h.element(coeffs)
            if 0 < mat.rank() <= r:
                return {"status": "refuted", "witness_coeffs": coeffs, "witness": mat, "method": "minor-solve"}
    return {"status": "unknown", "method": "budget-exhausted"}


def _exhaustive_small_dim(h, r):
    """Projective chart sweep of the rank-<= r minor variety for dim h <= 3:
    chart t sets x_s = 0 for s < t, x_t = 1, x_{t+1} = y and x_{t+2} = z."""
    d = h.dim
    for t in range(d):
        verdict, data = _decide_bivariate(_minors(_pencil(h, range(t, d), h.n), r + 1, h.n))
        if verdict == "witness":
            # a chart with fewer than three coordinates decides z-free
            # minors, so the (y, z) it drops past x_{d-1} are 0
            return tuple(([Fraction(0)] * t + [Fraction(1), *data])[:d])
        if verdict == "unknown":
            return "unknown"
    return "empty"
