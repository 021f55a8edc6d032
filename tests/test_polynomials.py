import random
from fractions import Fraction

from torsionlab.linalg import Mat
from torsionlab.polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    poly_gcd,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
)


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


def test_rational_roots():
    p = Poly([0, 0, 1]) * from_roots([Fraction(3, 2)]) * Poly([2, 0, 2])
    rr = rational_roots(p)
    assert (Fraction(0), 2) in rr
    assert (Fraction(3, 2), 1) in rr
    assert len(rr) == 2


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

