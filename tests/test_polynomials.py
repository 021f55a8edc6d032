import contextlib
import functools
import math
import random
import signal
from fractions import Fraction

import pytest
from reference import divisor_rational_split, fraction_char_poly, resultant_quadratic_factors, zp_expr

from torsionlab.linalg import Mat
from torsionlab.polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    low_degree_factors,
    poly_gcd,
    rational_split,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
    zp_add,
    zp_eval_y,
    zp_mul,
    zp_resultant,
    zp_sub,
)
from torsionlab.spectral import primary_components


def from_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def test_arithmetic_and_divmod():
    p = Poly([1, 2, 1])  # (x+1)^2
    q = Poly([1, 1])
    quo, rem = divmod(p, q)
    assert quo == q and rem.is_zero()
    assert p == q * q
    assert (p - q * q).is_zero()
    assert p(Fraction(2)) == 9


def test_gcd():
    p = from_roots([1, 2, 3])
    q = from_roots([2, 3, 4])
    assert poly_gcd(p, q) == from_roots([2, 3])


def test_squarefree():
    p = from_roots([1, 1, 2, 2, 2, 5])
    dec = squarefree_decomposition(p)
    assert dec == [(from_roots([5]), 1), (from_roots([1]), 2), (from_roots([2]), 3)]
    assert squarefree_part(p) == from_roots([1, 2, 5])


def test_sturm_counts():
    p = from_roots([-3, 0, 2]) * Poly([1, 0, 1])  # two complex roots on top
    assert count_real_roots(p) == 3
    assert count_real_roots(p, 0, 5) == 1  # interval (0, 5]
    assert count_real_roots(p, -1, 0) == 1  # (-1, 0] catches the root at 0
    assert count_real_roots(Poly([1, 0, 1])) == 0
    assert count_real_roots(from_roots([1, 1, 1])) == 1  # distinct roots only


@pytest.mark.parametrize("a,b", [(2, -2), (1, 1), (Fraction(1, 2), Fraction(1, 3))])
def test_sturm_count_of_an_empty_interval_is_0(a, b):
    assert count_real_roots(from_roots([-1, 1]), a, b) == 0


@pytest.mark.parametrize("a,b", [(-1, 2), (-2, -1), (1, 3), (-1, 3), (None, 3), (-1, None), (None, None)])
def test_sturm_count_of_a_repeated_root_at_an_end(a, b):
    # roots -1 (twice), 1 and 3 (three times) beside x^2 + 1; the root at
    # a lies outside (a, b] and the root at b inside
    p = from_roots([-1, -1, 1, 3, 3, 3]) * Poly([1, 0, 1]) * Fraction(-2, 3)
    chain = sturm_chain(squarefree_part(p))

    def variations(x, sign):
        values = [q(x) if x is not None else q.leading() * sign**q.degree for q in chain]
        signs = [v > 0 for v in values if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    expected = sum(1 for root in (-1, 1, 3) if (a is None or a < root) and (b is None or root <= b))
    assert count_real_roots(p, a, b) == variations(a, -1) - variations(b, 1) == expected


def test_rational_roots():
    p = Poly([0, 0, 1]) * from_roots([Fraction(3, 2)]) * Poly([2, 0, 2])
    rr = rational_split(p)[0]
    assert (Fraction(0), 2) in rr
    assert (Fraction(3, 2), 1) in rr
    assert len(rr) == 2
    # fractional coefficients and a negative leading coefficient
    q = from_roots([Fraction(-2, 3), Fraction(5, 7), Fraction(5, 7)]) * Poly([1, 1, 1]) * Fraction(-7, 4)
    assert rational_split(q)[0] == [(Fraction(-2, 3), 1), (Fraction(5, 7), 2)]
    # denominators 6 and 4 clear only with their lcm, 12
    assert rational_split(Poly([Fraction(-1, 6), Fraction(3, 4)]) * Poly([1, 0, 1]))[0] == [(Fraction(2, 9), 1)]


def test_char_poly():
    m = Mat([[2, 1], [0, 2]])
    assert char_poly(m) == Poly([4, -4, 1])
    rot = Mat([[0, -1], [1, 0]])
    assert char_poly(rot) == Poly([1, 0, 1])


def test_char_poly_random_cayley_hamilton():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        p = char_poly(m)
        assert p.eval_mat(m).is_zero()



def random_zp(rng, z_deg, y_deg, lo=-3, hi=3):
    """A seeded element of Q[y][z] as a list of Polys in y, one per power of z."""
    return [Poly([Fraction(rng.randint(lo, hi), rng.randint(1, 2)) for _ in range(y_deg + 1)]) for _ in range(z_deg + 1)]


def test_zp_arithmetic_agrees_with_evaluation():
    rng = random.Random(31)
    points = [(Fraction(y0), Fraction(z0)) for y0 in (-2, 0, Fraction(1, 3)) for z0 in (-1, Fraction(3, 2), 5)]
    for _ in range(20):
        p, q = random_zp(rng, rng.randint(0, 3), rng.randint(0, 3)), random_zp(rng, rng.randint(0, 3), rng.randint(0, 3))
        for y0, z0 in points:
            pv, qv = zp_eval_y(p, y0)(z0), zp_eval_y(q, y0)(z0)
            assert zp_eval_y(zp_mul(p, q), y0)(z0) == pv * qv
            assert zp_eval_y(zp_add(p, q), y0)(z0) == pv + qv
            assert zp_eval_y(zp_sub(p, q), y0)(z0) == pv - qv
    # (1 + y z)^2 = 1 + 2 y z + y^2 z^2, trimmed: p - p is the empty list
    one_yz = [Poly([1]), Poly([0, 1])]
    assert zp_mul(one_yz, one_yz) == [Poly([1]), Poly([0, 2]), Poly([0, 0, 1])]
    assert zp_sub(one_yz, one_yz) == [] and zp_mul(one_yz, []) == []


IRREDUCIBLE_QUADRATICS = [
    (s, t) for s in range(-3, 4) for t in range(-3, 4) if s * s - 4 * t < 0 or math.isqrt(s * s - 4 * t) ** 2 != s * s - 4 * t
]


def quadratic(s, t):
    return Poly([t, -s, 1])  # x^2 - s x + t


def test_quadratic_rational_factors_finds_each_factor_in_order():
    # products of 2-3 distinct irreducible x^2 - s x + t, |s|, |t| <= 3;
    # the first also carries x^3 - 2, which has no quadratic factor
    rng = random.Random(23)
    for i in range(30):
        pick = sorted(rng.sample(IRREDUCIBLE_QUADRATICS, rng.randint(2, 3)))
        rest = Poly([-2, 0, 0, 1]) if i == 0 else Poly([1])
        q = rest
        for s, t in pick:
            q = q * quadratic(s, t)
        assert low_degree_factors(q) == ([], [quadratic(s, t) for s, t in pick]), pick


def test_zp_resultant_matches_sympy():
    # sympy's resultant is the Sylvester determinant when deg_z a >= deg_z b;
    # the other order follows from Res(b, a) = (-1)^(deg a deg b) Res(a, b)
    sympy = pytest.importorskip("sympy")
    y, z = sympy.symbols("y z")
    rng = random.Random(37)
    for _ in range(15):
        a, b = random_zp(rng, rng.randint(1, 3), rng.randint(0, 2)), random_zp(rng, rng.randint(1, 3), rng.randint(0, 2))
        if a[-1].is_zero() or b[-1].is_zero():
            continue
        if len(a) < len(b):
            a, b = b, a
        theirs = sympy.Poly(sympy.resultant(zp_expr(a, y, z), zp_expr(b, y, z), z), y)
        ours = zp_resultant(a, b)
        assert ours.coeffs == tuple(Fraction(int(c.p), int(c.q)) for c in reversed(theirs.all_coeffs()))
        assert zp_resultant(b, a) == ours * (-1) ** ((len(a) - 1) * (len(b) - 1))


def test_quadratic_rational_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(41)
    for _ in range(10):
        pick = rng.sample(IRREDUCIBLE_QUADRATICS, rng.randint(2, 3))
        q = Poly([-2, 0, 0, 1]) if rng.random() < 0.3 else Poly([1])
        for s, t in pick:
            q = q * quadratic(s, t)
        q = q * Fraction(3, 2)
        roots, found = low_degree_factors(q)
        _, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(q.coeffs)), x)
        theirs = sorted((-int(b), int(c)) for f, _ in factors if sympy.degree(f, x) == 2 for _, b, c in [sympy.Poly(f, x).all_coeffs()])
        assert theirs == sorted(pick)
        assert roots == [] and found == [quadratic(s, t) for s, t in theirs]


def _random_poly(rng, degree):
    return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree + 1)])


def _to_sympy(sympy, x, p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], x, domain="QQ")


def _from_sympy(p):
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


def test_poly_gcd_of_many_matches_sympy():
    # seeded products of a shared factor with cofactors, zeros among them;
    # once a prefix has gcd 1, the inputs after it are never read
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    unread = object()  # reading it raises AttributeError
    rng = random.Random(47)
    assert poly_gcd() == Poly([]) and poly_gcd(Poly([]), Poly([])) == Poly([])
    assert poly_gcd(Poly([]), Poly([Fraction(-3, 2)]), unread) == Poly([1])
    coprime = 0
    for _ in range(60):
        shared = _random_poly(rng, rng.randint(0, 3))
        ps = [shared * _random_poly(rng, rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            ps.insert(rng.randrange(len(ps) + 1), Poly([]))
        theirs = functools.reduce(sympy.gcd, [_to_sympy(sympy, x, p) for p in ps])
        assert poly_gcd(*ps) == _from_sympy(theirs.monic() if not theirs.is_zero else theirs), ps
        if theirs.degree() == 0:
            coprime += 1
            assert poly_gcd(*ps, unread) == Poly([1]), ps
    assert coprime >= 5


def test_rational_split_matches_sympy():
    # seeded products of rational roots (0 and repeats among them) with a
    # random cofactor and scale; sympy's linear factors give the roots
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(53)
    assert rational_split(Poly([])) == ([], Poly([]))
    assert rational_split(Poly([Fraction(5, 3)])) == ([], Poly([Fraction(5, 3)]))
    assert rational_split(Poly([0, 0, 0, 2])) == ([(Fraction(0), 3)], Poly([2]))
    pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 3]
    with_zero = 0
    for _ in range(40):
        p = _random_poly(rng, rng.randint(0, 3))
        if p.is_zero():
            continue
        for root in rng.sample(pool, rng.randint(0, 3)):
            p = p * from_roots([root] * rng.randint(1, 3))
        p = p * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        _, factors = sympy.factor_list(_to_sympy(sympy, x, p))
        roots = sorted(
            (Fraction(int(r.p), int(r.q)), mult)
            for f, mult in factors
            if f.degree() == 1
            for r in [-f.all_coeffs()[1] / f.all_coeffs()[0]]
        )
        cofactor = _to_sympy(sympy, x, p)
        for root, mult in roots:
            cofactor = cofactor.exquo(_to_sympy(sympy, x, from_roots([root] * mult)))
        ours = rational_split(p)
        assert ours == (roots, _from_sympy(cofactor)), p
        with_zero += any(root == 0 for root, _ in roots)
    assert with_zero >= 5


def test_integer_route_matches_the_fraction_references():
    # seeded rational matrices, n = 2..9, with non-integer entries: the
    # integer Faddeev-LeVerrier against the Fraction one; then products of
    # known rational roots (repeats among them) and irreducible quadratics,
    # scaled by a non-integer constant: rational_split against the divisor
    # route, and low_degree_factors of the squarefree part against both the
    # divisor route and the resultant search
    rng = random.Random(59)
    for n in range(2, 10):
        for _ in range(4):
            m = Mat([[Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 4])) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(n)])
            assert char_poly(m) == fraction_char_poly(m), m
    pool = [Fraction(r) for r in (-2, -1, 1, 3)] + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    quads_found = 0
    for _ in range(40):
        pick = sorted(rng.sample(IRREDUCIBLE_QUADRATICS, rng.randint(0, 3)))
        p = from_roots(rng.sample(pool, rng.randint(0, 3)) * rng.randint(1, 2)) * Fraction(rng.choice([-5, 2, 7]), rng.choice([3, 4, 6]))
        for s, t in pick:
            p = p * quadratic(s, t)
        split = rational_split(p)
        assert split == divisor_rational_split(p), p
        quads = [quadratic(s, t) for s, t in pick]
        assert resultant_quadratic_factors(split[1]) == (quads, Poly([1])), p
        assert low_degree_factors(squarefree_part(p)) == ([root for root, _ in split[0]], quads), p
        quads_found += len(pick)
    assert quads_found >= 30


@contextlib.contextmanager
def under_a_second():
    """Raise TimeoutError in the block once it has run for a second."""

    def expire(*_):
        raise TimeoutError("ran for a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "rows",
    [
        # the two generic n = 8 product queries of the benchmark's query-mix,
        # whose chi_f, irreducible of degree 7, the divisor route never finished
        [[1, -1, -4, -5, -4, -1, -2], [-3, 0, 1, -4, -4, -1, 2], [3, 2, 5, 2, 4, 4, -1], [0, -5, 5, 3, 2, 3, 3],
         [-5, 0, -3, 3, -3, 2, -5], [-1, -4, -1, -1, -1, 4, -4], [-1, -5, 1, -2, -4, 4, 0]],
        [[3, 4, -4, 4, -4, -5, 4], [-3, 3, -1, 4, -5, 1, 4], [-1, 3, 1, 1, 0, -3, 0], [4, -4, -3, 1, -4, 3, 4],
         [1, 1, 1, 0, 2, -1, -5], [4, -4, 3, 3, 2, 2, 3], [-1, -4, 1, -3, 0, 4, -4]],
    ],
)
def test_generic_degree_7_spectrum_within_a_second(rows):
    f = Mat(rows)
    with under_a_second():
        spec = primary_components(f)
    assert spec.split == () and spec.unsplit == ((char_poly(f), 1),)


def test_30_digit_rational_roots_within_a_second():
    rng = random.Random(61)
    roots = sorted({Fraction(rng.randrange(10**29, 10**30) * rng.choice([-1, 1]), rng.randrange(10**29, 10**30)) for _ in range(4)})
    mults = [1, 2, 1, 1]
    p = Poly([Fraction(-7, 3)]) * Poly([1, 1, 1])
    for root, mult in zip(roots, mults):
        p = p * from_roots([root] * mult)
    with under_a_second():
        split = rational_split(p)
    assert split == (list(zip(roots, mults)), Poly([Fraction(-7, 3)] * 3))


def test_two_40_digit_irreducible_quadratics_within_a_second():
    # one with two real irrational roots, which split mod most primes, and
    # one with complex roots
    rng = random.Random(67)
    s1, t1 = rng.randrange(10**39, 10**40), -rng.randrange(10**39, 10**40)
    s2, t2 = Fraction(rng.randrange(10**39, 10**40), 7), Fraction(rng.randrange(10**79, 10**80), 9)
    assert math.isqrt(s1 * s1 - 4 * t1) ** 2 != s1 * s1 - 4 * t1 and s2 * s2 < 4 * t2
    q = quadratic(s2, t2) * quadratic(s1, t1) * Fraction(5, 3)
    with under_a_second():
        found = low_degree_factors(q)
    assert found == ([], [quadratic(s, t) for s, t in sorted([(s1, t1), (s2, t2)])])
