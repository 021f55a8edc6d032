"""Exact polynomial arithmetic over Q.

Supports the spectral pipeline: characteristic polynomials via
Faddeev-LeVerrier on integers, Yun squarefree decomposition, Sturm-chain
real root counting and the rational factors of degree <= 2.  Zeros are
found through two primitives: `poly_gcd(*polys)`, the monic gcd of any
number of polynomials, and `low_degree_factors(q)`, the rational roots
and rational quadratic factors of a squarefree q: factors mod a prime,
Hensel-lifted and tested by exact division, on int lists.
`rational_split(p)` reads it for the rational roots of any p with their
multiplicities, together with the cofactor they leave.  Q[y][z] has one
form, a list of `Poly`s in y indexed by the power of z (the `zp_*`
functions, with primitive-PRS gcd, exact division and the Sylvester
resultant); the rank solve of `ellipticity` builds in it.  A `Poly`
holds Fractions, and every result is a `Poly` or a Fraction; there is
no numerical root finding anywhere.
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
        """p(m) by Horner: from lc(p) I, multiply by m and add c on the diagonal."""
        if self.is_zero():
            return Mat.zeros(m.rows, m.cols)
        acc = Mat.identity(m.rows).scale(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = Mat([[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate((acc * m).data)])
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
    # the chain of p over its last term, gcd(p, p') up to a constant, is a
    # Sturm chain of the squarefree part (Basu, Pollack and Roy, ch. 2)
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        chain = [q.exact_div(chain[-1]) for q in chain]
    va = _variations_at(chain, fr(a)) if a is not None else _variations_at_inf(chain, positive=False)
    vb = _variations_at(chain, fr(b)) if b is not None else _variations_at_inf(chain, positive=True)
    return va - vb


def rational_split(p: Poly):
    """(roots, cofactor): the sorted rational roots of p with their
    multiplicities, and p divided by (x - root)^multiplicity for each.
    A constant or zero p has no roots and is its own cofactor."""
    if p.degree <= 0:
        return [], p
    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    roots = [(Fraction(0), zeros)] if zeros else []
    work = Poly(p.coeffs[zeros:])
    for root in low_degree_factors(squarefree_part(work))[0]:
        mult = 0
        while work(root) == 0:
            work = work.exact_div(Poly([-root, 1]))
            mult += 1
        roots.append((root, mult))
    return sorted(roots), work


def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(xI - m) by Faddeev-LeVerrier on
    integers: with d the lcm of the denominators of m, chi_m(x) is
    d^-n chi_{dm}(dx), and the coefficient -tr(M_k) / k of x^(n-k) in
    chi_{dm} is an exact integer division."""
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.rows
    d = math.lcm(*(x.denominator for row in m.data for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.data]
    coeffs, mk = [1], a
    for k in range(1, n + 1):
        coeffs.append(-sum(mk[i][i] for i in range(n)) // k)
        if k < n:  # M_{k+1} = a (M_k + coeffs[k] I)
            cols = list(zip(*(row[:i] + [row[i] + coeffs[k]] + row[i + 1 :] for i, row in enumerate(mk))))
            mk = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return Poly([Fraction(c, d**k) for k, c in reversed(list(enumerate(coeffs)))])


# -- Z[x] and (Z/m)[x]: int lists, low-to-high, no trailing zeros


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _lin(p, q, m, c=1):
    """p + c q mod m."""
    out = [a % m for a in p] + [0] * (len(q) - len(p))
    for i, b in enumerate(q):
        out[i] = (out[i] + c * b) % m
    return _trim(out)


def _mul(p, q, m):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim([c % m for c in out])


def _divmod(p, q, m):
    """Quotient and remainder of p by q mod m; q's leading coefficient is a unit."""
    inv, rem, dq = pow(q[-1], -1, m), [c % m for c in p], len(q) - 1
    quo = [0] * max(0, len(p) - dq)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + dq] * inv % m
        for j, b in enumerate(q):
            rem[i + j] = (rem[i + j] - c * b) % m
    return _trim(quo), _trim(rem[:dq])


def _powmod(base, e, g, p):
    """base^e mod g, mod p."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, p), g, p)[1]
        base, e = _divmod(_mul(base, base, p), g, p)[1], e >> 1
    return out


def _xgcd(a, b, p):
    """(g, s, t) mod p: g the monic gcd of a and b, and s a + t b = g."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        quo, rem = _divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1, t0, t1 = s1, _lin(s0, _mul(quo, s1, p), p, -1), t1, _lin(t0, _mul(quo, t1, p), p, -1)
    inv = [pow(r0[-1], -1, p)]
    return _mul(r0, inv, p), _mul(s0, inv, p), _mul(t0, inv, p)


def _split(g, d, p):
    """The monic irreducible factors mod p of g, a product of distinct ones of
    degree d: Cantor-Zassenhaus with x + a, a = 0, 1, ..., for the random
    element (by the Weil bound some a < p splits any two factors, p >= 101)."""
    if len(g) - 1 <= d:
        return [g]
    for a in range(p):
        u = _xgcd(g, _lin(_powmod([a, 1], (p**d - 1) // 2, g, p), [1], p, -1), p)[0]
        if 1 < len(u) < len(g):
            return _split(u, d, p) + _split(_divmod(g, u, p)[0], d, p)
    raise ArithmeticError("no split found")


def _hensel(f, h, p, m):
    """The monic factor h of f mod p lifted to a factor of f mod m = p^(2^k)
    (von zur Gathen and Gerhard, Algorithm 15.10); f mod p is squarefree,
    of the degree of f."""
    g, mod = _divmod(f, h, p)[0], p
    _, s, t = _xgcd(g, h, p)
    while mod < m:
        mod *= mod
        e = _lin(f, _mul(g, h, mod), mod, -1)
        quo, rem = _divmod(_mul(s, e, mod), h, mod)
        g, h = _lin(g, _lin(_mul(t, e, mod), _mul(quo, g, mod), mod), mod), _lin(h, rem, mod)
        b = _lin(_lin(_mul(s, g, mod), _mul(t, h, mod), mod), [1], mod, -1)
        c, d = _divmod(_mul(s, b, mod), h, mod)
        s, t = _lin(s, d, mod, -1), _lin(t, _lin(_mul(t, b, mod), _mul(c, g, mod), mod), mod, -1)
    return h


def low_degree_factors(q: Poly):
    """(roots, quadratics): the rational roots of the squarefree q in
    ascending order, and its monic rational quadratic factors without
    rational roots, x^2 - s x + t in ascending (s, t).

    Zassenhaus's method cut to degree <= 2 (von zur Gathen and Gerhard,
    ch. 15; the roots are Loos's p-adic rational zeros).  f, q with its
    denominators cleared, is factored mod the first prime p >= 101 that
    keeps its degree and leaves it squarefree.  The linear and quadratic
    factors mod p are lifted mod m > 4 (|f|_2 + 1): lc(f) times a monic
    rational factor of degree <= 2 has coefficients of size at most
    2 |f|_2 (Mignotte), so its symmetric residue mod m is exact.  Each
    lifted linear, lifted quadratic and product of two lifted linears that
    are not factors themselves is then tested by exact division.
    """
    if q.degree <= 1:
        return [-q.coeffs[0] / q.coeffs[1]] if q.degree == 1 else [], []
    den = math.lcm(*(c.denominator for c in q.coeffs))
    f = [c.numerator * (den // c.denominator) for c in q.coeffs]
    p, df = 101, [i * c for i, c in enumerate(f)][1:]
    # the next odd p until it is prime, does not divide lc(f) and leaves f squarefree
    while (any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)) or f[-1] % p == 0
           or len(_xgcd(_lin(f, [], p), _lin(df, [], p), p)[0]) > 1):
        p += 2
    fp = _lin(f, [], p)
    xp = _powmod([0, 1], p, fp, p)
    ones = _xgcd(fp, _lin(xp, [0, 1], p, -1), p)[0]
    rest = _divmod(fp, ones, p)[0]
    twos = _xgcd(rest, _lin(_powmod(_divmod(xp, rest, p)[1], p, rest, p), [0, 1], p, -1), p)[0]
    bound, m = 4 * (math.isqrt(sum(c * c for c in f)) + 1), p
    while m <= bound:
        m *= m

    def rational(h):  # the monic rational factor lc(f) h mod m stands for, if it divides q
        fac = Poly([(f[-1] * a + m // 2) % m - m // 2 for a in h]).monic()
        return fac if (q % fac).is_zero() else None

    found, strays = [], []
    for h in (_hensel(f, u, p, m) for g, d in ((ones, 1), (twos, 2)) for u in _split(g, d, p) if len(u) > 1):
        fac = rational(h)
        if fac is not None:
            found.append(fac)
        elif len(h) == 2:
            strays.append(h)
    found += filter(None, (rational(_mul(h, k, m)) for i, h in enumerate(strays) for k in strays[i + 1 :]))
    roots = sorted(-fac.coeffs[0] for fac in found if fac.degree == 1)
    return roots, sorted((fac for fac in found if fac.degree == 2), key=lambda fac: (-fac.coeffs[1], fac.coeffs[0]))


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

