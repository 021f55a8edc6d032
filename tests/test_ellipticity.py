import itertools
import random
from fractions import Fraction

import pytest
from reference import zp_expr

from torsionlab.algebras import LinearSubalgebra
from torsionlab.builders import build_gl, build_gl_H, build_so, build_sp_H, build_su, build_u
from torsionlab.ellipticity import (
    _decide_bivariate,
    _decide_univariate,
    _minors,
    _pencil,
    _sign_normalized_grid,
    classify_low_rank,
    low_rank_witness,
)
from torsionlab.linalg import Mat
from torsionlab.polynomials import Poly, zp_gcd, zp_resultant


def test_witness_rank_one():
    h = LinearSubalgebra(2, [Mat([[1, 0], [0, 0]])], name="line")
    found = low_rank_witness(h, 1)
    assert found is not None
    coeffs, mat = found
    assert mat.rank() == 1


def test_glH_certified_no_rank_two():
    res = classify_low_rank(build_gl_H(1), 2)
    assert res["status"] == "certified"
    assert res["method"] == "quaternionic-image"


def test_sp1_certified_exhaustive():
    h = build_sp_H(1)
    # strip the structural shortcut to force the dim-3 exhaustive solve
    bare = LinearSubalgebra(4, h.basis, name="sp(1)-bare", validate=False)
    res = classify_low_rank(bare, 2)
    assert res["status"] == "certified"
    assert res["method"] == "minor-variety-empty"


def test_su2_no_rank_two_witness():
    h = build_su(2)
    assert low_rank_witness(h, 2) is None
    res = classify_low_rank(h, 2)
    assert res["status"] == "certified"


def test_u2_refuted_rank_two():
    # u(2) contains the rank-two rotation in the (e3,e4)-plane
    res = classify_low_rank(build_u(2), 2)
    assert res["status"] == "refuted"
    assert res["witness"].rank() <= 2


def test_dim2_pencil_decision():
    # span{E11, E22}: every element diag(a, b) has rank <= 1 iff a or b vanishes
    h = LinearSubalgebra(2, [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])], name="diag")
    res = classify_low_rank(h, 1)
    assert res["status"] == "refuted"


def test_dim2_certified_empty():
    # span{I, J0}: a + bJ has det a^2 + b^2, never rank <= 1 except 0
    h = LinearSubalgebra(
        2, [Mat.identity(2), Mat([[0, -1], [1, 0]])], name="C", validate=False
    )
    res = classify_low_rank(h, 1)
    assert res["status"] == "certified"
    assert res["method"] == "minor-variety-empty"


def test_zp_helpers():
    # gcd over Q[y][z] of (z^2 + y^2)(z - 1) and (z^2 + y^2)
    a = [Poly([0, 0, -1]), Poly([0, 0, 1]), Poly([-1]), Poly([1])]  # (z^2+y^2)(z-1)
    b = [Poly([0, 0, 1]), Poly([0]), Poly([1])]  # z^2 + y^2
    g = zp_gcd(a, b)
    assert len(g) == 3 and g[0] == Poly([0, 0, 1]) and g[2] == Poly([1])
    # resultant of z^2 + y^2 and z: y^2, up to a sign
    r = zp_resultant(b, [Poly([0]), Poly([1])])
    assert r == Poly([0, 0, 1]) or r == -Poly([0, 0, 1])


def test_decide_bivariate_circle():
    # 1 + y^2 + z^2 has no real zeros
    p = [Poly([1, 0, 1]), Poly([]), Poly([1])]
    verdict, _ = _decide_bivariate([p])
    assert verdict == "empty"


def test_decide_bivariate_witness():
    # y^2 + z^2 vanishes only at the origin
    p = [Poly([0, 0, 1]), Poly([]), Poly([1])]
    verdict, data = _decide_bivariate([p])
    assert verdict == "witness"
    assert data == (Fraction(0), Fraction(0))


def test_decide_bivariate_witness_from_an_elimination_root():
    # y - 2 = z - 3 = 0: y = 2 is a root of the resultant, z = 3 of its fiber
    verdict, data = _decide_bivariate([[Poly([-2, 1])], [Poly([-3]), Poly([1])]])
    assert (verdict, data) == ("witness", (Fraction(2), Fraction(3)))


def test_decide_bivariate_witness_from_a_content_root():
    # (y - 1)(z^2 + 1) vanishes on the whole line y = 1
    verdict, data = _decide_bivariate([[Poly([-1, 1]), Poly([]), Poly([-1, 1])]])
    assert (verdict, data) == ("witness", (Fraction(1), Fraction(0)))


def test_decide_bivariate_unknown_on_irrational_zeros():
    # y - 1 = z^2 - 2 = 0: the fiber over y = 1 has only z = +-sqrt 2
    assert _decide_bivariate([[Poly([-1, 1])], [Poly([-2]), Poly([]), Poly([1])]]) == ("unknown", None)
    # (y^2 - 2)(z^2 + 1) vanishes on the lines y = +-sqrt 2
    assert _decide_bivariate([[Poly([-2, 0, 1]), Poly([]), Poly([-2, 0, 1])]]) == ("unknown", None)


def test_decide_univariate_on_all_zero_polys_is_a_witness_at_zero():
    assert _decide_univariate([Poly([]), Poly([])]) == ("witness", Fraction(0))


def test_decide_univariate_is_empty_once_the_gcd_reaches_1():
    # (y - 1)(y - 2) and y - 3 share no root
    assert _decide_univariate([Poly([2, -3, 1]), Poly([-3, 1]), Poly([-1, 1])]) == ("empty", None)


def test_decide_bivariate_on_all_zero_polys_is_a_witness_at_the_origin():
    assert _decide_bivariate([[], []]) == ("witness", (Fraction(0), Fraction(0)))


def test_decide_bivariate_with_a_nonzero_constant_is_empty():
    # 3 = 0 has no solution, whatever y - z = 0 allows
    assert _decide_bivariate([[Poly([0, 1]), Poly([-1])], [Poly([3])]]) == ("empty", None)


@pytest.mark.parametrize(
    "polys,expected",
    [
        # y^2 + 1 has no real zero, whatever z is
        ([[Poly([1, 0, 1])]], ("empty", None)),
        # y^2 - 1 and y + 1 meet on the line y = -1
        ([[Poly([-1, 0, 1])], [Poly([1, 1])]], ("witness", (Fraction(-1), Fraction(0)))),
        # y^2 - 2 vanishes only on the lines y = +-sqrt 2
        ([[Poly([-2, 0, 1])]], ("unknown", None)),
    ],
    ids=["empty", "witness", "unknown"],
)
def test_decide_bivariate_on_a_z_free_system_decides_it_in_y(polys, expected):
    assert _decide_bivariate(polys) == expected


def test_decide_bivariate_unknown_when_the_projection_has_only_irrational_roots():
    # y^2 + z^2 - 2: the projection's critical values are y = +-sqrt 2
    assert _decide_bivariate([[Poly([-2, 0, 1]), Poly([]), Poly([1])]]) == ("unknown", None)


def test_low_rank_witness_stops_at_the_grid_budget(monkeypatch):
    import torsionlab.ellipticity as ellipticity

    h = build_so(5)
    assert low_rank_witness(h, 2) is not None
    monkeypatch.setattr(ellipticity, "GRID_BUDGET", 0)
    assert low_rank_witness(h, 2) is None


def test_minor_solve_refutes_with_the_last_basis_element_when_the_grid_is_cut(monkeypatch):
    # the chart x_0 = 1 of a one-element span has no free coordinate
    import torsionlab.ellipticity as ellipticity

    monkeypatch.setattr(ellipticity, "GRID_BUDGET", 0)
    h = LinearSubalgebra(2, [Mat([[1, 0], [0, 0]])], name="line")
    res = classify_low_rank(h, 1)
    assert (res["status"], res["method"], res["witness_coeffs"]) == ("refuted", "minor-solve", (Fraction(1),))


def test_zero_span_is_certified_by_the_minor_solve():
    h = LinearSubalgebra(2, [], name="zero", validate=False)
    assert classify_low_rank(h, 1) == {"status": "certified", "method": "minor-variety-empty"}


def test_dim3_minor_solve_refutes_outside_the_grid():
    # [[5a + b, c], [c, 5a - b]] has det 25 a^2 - b^2 - c^2: its rational
    # zeros have b^2 + c^2 = 25 a^2, none in the grid [-2, 2]^3; the chart
    # a = 1 finds the critical point (y, z) = (-5, 0) of the circle
    basis = [Mat([[5, 0], [0, 5]]), Mat([[1, 0], [0, -1]]), Mat([[0, 1], [1, 0]])]
    h = LinearSubalgebra(2, basis, name="circle", validate=False)
    res = classify_low_rank(h, 1)
    assert (res["status"], res["method"]) == ("refuted", "minor-solve")
    assert res["witness_coeffs"] == (Fraction(1), Fraction(-5), Fraction(0))
    assert res["witness"] == Mat([[0, 0], [0, 10]])


def test_dim3_minor_solve_unknown_on_irrational_critical_values():
    # [[5a + b, 5a + c], [c - 5a, 5a - b]] has det 50 a^2 - b^2 - c^2: the
    # chart a = 1 is the circle y^2 + z^2 = 50, critical at y = +-sqrt 50
    basis = [Mat([[5, 5], [-5, 5]]), Mat([[1, 0], [0, -1]]), Mat([[0, 1], [1, 0]])]
    h = LinearSubalgebra(2, basis, name="circle50", validate=False)
    assert classify_low_rank(h, 1) == {"status": "unknown", "method": "budget-exhausted"}


def test_minor_solve_refutes_outside_the_grid():
    # a diag(3, 5) + b I has rank 1 at b = -3a or b = -5a, both outside
    # the grid [-2, 2]^2; the solve returns the smaller root first
    h = LinearSubalgebra(2, [Mat([[3, 0], [0, 5]]), Mat.identity(2)], name="diag", validate=False)
    res = classify_low_rank(h, 1)
    assert (res["status"], res["method"]) == ("refuted", "minor-solve")
    assert res["witness_coeffs"] == (Fraction(1), Fraction(-5))
    assert res["witness"] == Mat([[-2, 0], [0, 0]])


def test_minor_solve_unknown_on_an_irrational_rank_one_locus():
    # a I + b [[0, 2], [1, 0]] has det a^2 - 2 b^2: rank 1 only at a = +-sqrt2 b
    h = LinearSubalgebra(2, [Mat.identity(2), Mat([[0, 2], [1, 0]])], name="sqrt2", validate=False)
    assert classify_low_rank(h, 1) == {"status": "unknown", "method": "budget-exhausted"}


def test_pencil_minors_match_sympy():
    sympy = pytest.importorskip("sympy")
    y, z = sympy.symbols("y z")
    rng = random.Random(43)
    for n, r in ((3, 1), (3, 2), (4, 2)):
        basis = [Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) for _ in range(3)]
        h = LinearSubalgebra(n, basis, name="random", validate=False)
        ours = _minors(_pencil(h, [0, 1, 2], n), r + 1, n)
        pencil = sum((w * sympy.Matrix(b.data) for w, b in zip((1, y, z), basis)), sympy.zeros(n, n))
        theirs = [
            pencil.extract(list(rows), list(cols)).det()
            for rows in itertools.combinations(range(n), r + 1)
            for cols in itertools.combinations(range(n), r + 1)
        ]
        for m, t in zip(ours, theirs, strict=True):
            assert sympy.expand(zp_expr(m, y, z) - t) == 0


def _reference_sign_normalized_grid(dim, coeff_range):
    """The full grid filtered to tuples whose first nonzero entry is positive."""
    grid = range(-coeff_range, coeff_range + 1)
    for coeffs in itertools.product(grid, repeat=dim):
        nonzero = [c for c in coeffs if c != 0]
        if nonzero and nonzero[0] > 0:
            yield coeffs


def test_sign_normalized_grid_matches_filtered_product():
    for dim in range(1, 6):
        for coeff_range in (1, 2):
            assert list(_sign_normalized_grid(dim, coeff_range)) == list(
                _reference_sign_normalized_grid(dim, coeff_range)
            ), (dim, coeff_range)


def test_so5_witness_is_last_basis_element():
    h = build_so(5)
    coeffs, mat = low_rank_witness(h, 2)
    assert coeffs == tuple(Fraction(1 if i == h.dim - 1 else 0) for i in range(h.dim))
    assert mat == h.basis[-1]


@pytest.mark.parametrize("r", [-1, 1.0, True, "2", None])
def test_classify_low_rank_rejects_a_rank_bound_that_is_not_an_int_at_least_0(r):
    with pytest.raises(ValueError, match="rank bound r"):
        classify_low_rank(build_u(2), r)


@pytest.mark.parametrize("r", [-1, 1.0, True, "2", None])
def test_low_rank_witness_rejects_a_rank_bound_that_is_not_an_int_at_least_0(r):
    with pytest.raises(ValueError, match="rank bound r"):
        low_rank_witness(build_u(2), r)


def test_low_rank_witness_at_rank_0_is_none_without_the_grid(monkeypatch):
    import torsionlab.ellipticity as ellipticity

    monkeypatch.setattr(ellipticity, "_sign_normalized_grid", lambda *a: pytest.fail("the grid ran"))
    assert low_rank_witness(build_gl(3), 0) is None


def test_classify_low_rank_certifies_rank_0_without_the_grid(monkeypatch):
    import torsionlab.ellipticity as ellipticity

    monkeypatch.setattr(ellipticity, "low_rank_witness", lambda *a: pytest.fail("the grid ran"))
    assert classify_low_rank(build_gl(3), 0) == {"status": "certified", "method": "rank-0"}
