"""Exact polynomial arithmetic over Q.

Supports the spectral pipeline: characteristic polynomials via
Faddeev-LeVerrier, Yun squarefree decomposition, Sturm-chain real root
counting and rational root extraction.  Zeros are found through two
primitives: `poly_gcd(*polys)`, the monic gcd of any number of
polynomials, and `rational_split(p)`, the rational roots of p with
their multiplicities together with the cofactor they leave.  Q[y][z]
has one form, a list of `Poly`s in y indexed by the power of z (the
`zp_*` functions, with primitive-PRS gcd, exact division and the
Sylvester resultant); the quadratic-factor search and the rank solve
of `ellipticity` build in it.  All coefficients are Fractions; there
is no numerical root finding anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Mat, Value, fr


class Poly(Value):
    """Univariate polynomial, coefficients low-to-high, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [fr(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c):
        return cls([c])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def _key(self):
        return self.coeffs

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([fr(other) * c for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            f = rem[-1] / dlead
            quo[shift] = f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= f * c
            rem.pop()
        return Poly(quo), Poly(rem)

    def __mod__(self, other):
        q, r = divmod(self, other)
        return r

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("division not exact")
        return q

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mat(self, m: Mat) -> Mat:
        acc = Mat.zeros(m.rows, m.cols)
        for c in reversed(self.coeffs):
            acc = acc * m + Mat.identity(m.rows).scale(c)
        return acc

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])


def poly_gcd(*polys: Poly) -> Poly:
    """The monic gcd of polys: zero when every one is zero, and 1 as soon
    as the gcd of a prefix is a nonzero constant (the rest is not read)."""
    g = Poly([])
    for p in polys:
        while not p.is_zero():
            g, p = p, g % p
        if g.degree == 0:
            return Poly([1])
    return g.monic()


def squarefree_decomposition(p: Poly):
    """Yun's algorithm: returns [(q_i, i)] with p = lc * prod q_i^i, q_i monic squarefree."""
    p = p.monic()
    if p.degree <= 0:
        return []
    d = p.derivative()
    a = poly_gcd(p, d)
    b = p.exact_div(a)
    c = d.exact_div(a)
    out = []
    i = 1
    while b.degree > 0:
        dd = c - b.derivative()
        g = poly_gcd(b, dd)
        if g.degree > 0:
            out.append((g.monic(), i))
        b = b.exact_div(g)
        if b.degree == 0:
            break
        c = dd.exact_div(g)
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    if p.degree <= 0:
        return p.monic()
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


def sturm_chain(p: Poly):
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
        if chain[-1].is_zero():
            chain.pop()
            break
    return [q for q in chain if not q.is_zero()]


def _sign_variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, x):
    return _sign_variations([q(x) for q in chain])


def _variations_at_inf(chain, positive):
    vals = []
    for q in chain:
        lead = q.leading()
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if q.degree % 2 == 0 else -lead)
    return _sign_variations(vals)


def count_real_roots(p: Poly, a=None, b=None) -> int:
    """Distinct real roots of p in the interval (a, b]; whole line by
    default, and 0 when a >= b leaves the interval empty."""
    if p.degree <= 0 or (a is not None and b is not None and fr(a) >= fr(b)):
        return 0
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    va = _variations_at(chain, fr(a)) if a is not None else _variations_at_inf(chain, positive=False)
    vb = _variations_at(chain, fr(b)) if b is not None else _variations_at_inf(chain, positive=True)
    return va - vb


def rational_roots(p: Poly):
    """All rational roots of p, as a sorted list of (root, multiplicity)."""
    return rational_split(p)[0]


def rational_split(p: Poly):
    """(roots, cofactor): the sorted rational roots of p with their
    multiplicities, and p divided by (x - root)^multiplicity for each.
    A constant or zero p has no roots and is its own cofactor."""
    if p.degree <= 0:
        return [], p
    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    roots = [(Fraction(0), zeros)] if zeros else []
    work = Poly(p.coeffs[zeros:])
    den = math.lcm(*(c.denominator for c in work.coeffs))
    ints = [int(c * den) for c in work.coeffs]
    g = math.gcd(*ints)
    a0, an = abs(ints[0]) // g, abs(ints[-1]) // g
    candidates = {Fraction(sign * a, b) for a in _divisors(a0) for b in _divisors(an) for sign in (1, -1)}
    for cand in sorted(candidates):
        if work(cand) == 0:
            mult = 0
            while work(cand) == 0:
                work = work.exact_div(Poly([-cand, 1]))
                mult += 1
            roots.append((cand, mult))
        if work.degree <= 0:
            break
    return sorted(roots), work


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(xI - m) by Faddeev-LeVerrier."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        ck = -mk.trace() / k
        coeffs[n - k] = ck
        mk = mk + Mat.identity(n).scale(ck)
    return Poly(coeffs)


# -- Q[y][z] as lists: p[j] is the coefficient of z^j, a Poly in y, no trailing zeros


def zp_trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def zp_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return zp_trim([c + d for c, d in zip(p, q)] + list(p[len(q):]))


def zp_mul(p, q):
    out = [Poly([])] * (len(p) + len(q) - 1) if p and q else []
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] = out[i + j] + c * d
    return zp_trim(out)


def zp_eval_y(p, y0) -> Poly:
    """Specialize y, leaving a Poly in z."""
    return Poly([c(y0) for c in p])


def zp_primitive(p):
    """(content, primitive part): the monic gcd in y of the coefficients
    of p, and p divided by it; (1, []) for p = 0."""
    p = zp_trim(p)
    if not p:
        return Poly([1]), []
    cont = poly_gcd(*p)
    return cont, [c.exact_div(cont) for c in p]


def zp_scale(p, f: Poly):
    return [c * f for c in p]


def zp_sub(p, q):
    return zp_add(p, [-c for c in q])


def zp_shift(p, k):
    return [Poly([])] * k + list(p)


def zp_pseudo_rem(a, b):
    """Pseudo-remainder of a by b in Q[y][z]."""
    a = zp_trim(a)
    b = zp_trim(b)
    lb = b[-1]
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        la = a[-1]
        a = zp_sub(zp_scale(a, lb), zp_shift(zp_scale(b, la), shift))
    return a


def zp_gcd(a, b):
    """Primitive gcd in Q[y][z] (primitive pseudo-remainder sequence)."""
    a = zp_primitive(a)[1]
    b = zp_primitive(b)[1]
    while b:
        r = zp_primitive(zp_pseudo_rem(a, b))[1]
        a, b = b, r
    return a


def zp_exact_div(a, b):
    """Exact quotient a / b in Q[y][z]; requires b | a."""
    a = zp_trim(a)
    b = zp_trim(b)
    out = [Poly([])] * max(0, len(a) - len(b) + 1)
    while a and len(a) >= len(b):
        shift = len(a) - len(b)
        q = a[-1].exact_div(b[-1])
        out[shift] = out[shift] + q
        a = zp_sub(a, zp_shift(zp_scale(b, q), shift))
    if a:
        raise ArithmeticError("z-division not exact")
    return out


def zp_derivative(p):
    return zp_trim([c * Fraction(j) for j, c in enumerate(p)][1:])


def poly_mat_det(rows):
    """Fraction-free Bareiss determinant of a matrix of Poly entries."""
    k = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = Poly([1])
    for c in range(k - 1):
        if m[c][c].is_zero():
            pivot = next((r for r in range(c + 1, k) if not m[r][c].is_zero()), None)
            if pivot is None:
                return Poly([])
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for i in range(c + 1, k):
            for j in range(c + 1, k):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]).exact_div(prev)
            m[i][c] = Poly([])
        prev = m[c][c]
    det = m[k - 1][k - 1]
    return det if sign == 1 else -det


def zp_resultant(a, b):
    """Res_z of a, b in Q[y][z], as a Poly in y (Sylvester/Bareiss)."""
    a = zp_trim(a)
    b = zp_trim(b)
    da, db = len(a) - 1, len(b) - 1
    if da < 0 or db < 0:
        return Poly([])
    size = da + db
    if size == 0:
        return Poly([1])
    rows = []
    for i in range(db):
        rows.append([Poly([])] * i + list(reversed(a)) + [Poly([])] * (size - i - da - 1))
    for i in range(da):
        rows.append([Poly([])] * i + list(reversed(b)) + [Poly([])] * (size - i - db - 1))
    return poly_mat_det(rows)


def quadratic_rational_factors(q: Poly):
    """All monic quadratics x^2 - s x + t with rational s, t dividing q.

    Solved exactly: the remainder of q modulo x^2 - s x + t is
    A(s, t) x + B(s, t); rational common zeros of (A, B) are found by a
    resultant elimination plus rational root extraction.  q is assumed
    squarefree with no rational roots; factors the method cannot reach
    stay in the caller's unsplit pile.
    """
    found = []
    work = q.monic()
    while work.degree >= 4:
        fac = _one_quadratic_factor(work)
        if fac is None:
            break
        found.append(fac)
        work = work.exact_div(fac)
    if work.degree == 2:
        found.append(work.monic())
        work = Poly([1])
    return found, work


def _one_quadratic_factor(q):
    # x^k mod (x^2 - s x + t) = a_k x + b_k in Q[s][t], with s = y, t = z:
    # a_{k+1} = s a_k + b_k and b_{k+1} = -t a_k; q mod (x^2 - s x + t)
    # is then za x + zb with za = sum c_k a_k and zb = sum c_k b_k
    a, b = [], [Poly([1])]
    za, zb = [], []
    for c in q.coeffs:
        if c != 0:
            za, zb = zp_add(za, zp_scale(a, c)), zp_add(zb, zp_scale(b, c))
        a, b = zp_add([Poly((0,) + ak.coeffs) for ak in a], b), zp_shift([-ak for ak in a], 1)
    if not za or not zb:
        return None
    elim = zp_resultant(za, zb)
    if elim.is_zero():
        return None
    for s0, _ in rational_roots(elim):
        g = poly_gcd(zp_eval_y(za, s0), zp_eval_y(zb, s0))
        if g.degree <= 0:
            continue
        for t0, _ in rational_roots(g):
            fac = Poly([t0, -s0, 1])
            if (q % fac).is_zero():
                return fac
    return None
