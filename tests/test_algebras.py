from fractions import Fraction

import pytest

from torsionlab.algebras import (
    LinearSubalgebra,
    MetricContext,
    StructureError,
    bracket,
    commutant,
    conjugate,
    is_degenerate,
    is_subalgebra,
    orthogonal_complement,
)
from torsionlab.builders import (
    build_delta_gl,
    build_gl_C,
    build_so,
    build_sp,
    hyperparacomplex_triple,
    quaternion_triple,
    standard_J,
    tangent_T,
)
from torsionlab.linalg import Mat, ShapeError, Subspace


def E(n, i, j):
    out = [[Fraction(0)] * n for _ in range(n)]
    out[i][j] = Fraction(1)
    return Mat(out)


def test_bracket():
    b = Mat([[1, 2], [3, 4]])
    assert bracket(Mat.identity(2), b).is_zero()
    assert bracket(b, b).is_zero()
    # [E12, E21] = diag(1, -1), by 2x2 hand computation
    assert bracket(E(2, 0, 1), E(2, 1, 0)) == Mat([[1, 0], [0, -1]])
    with pytest.raises(ShapeError):
        bracket(Mat.identity(2), Mat.identity(3))


def test_is_subalgebra():
    assert is_subalgebra(build_sp(1).basis)  # sp(2,R), 3 matrices
    assert is_subalgebra([E(2, 0, 1)])  # abelian
    assert is_subalgebra([E(2, 0, 1), E(2, 0, 0)])
    assert not is_subalgebra([E(2, 0, 1), E(2, 1, 0)])


def test_conjugate_identity_and_inverse():
    h = build_sp(1)
    assert conjugate(h, Mat.identity(2)) == h
    t = Mat([[1, 2], [0, 1]])
    assert conjugate(conjugate(h, t), t.inverse()) == h


def test_conjugate_so2_by_diag():
    # so(2) conjugated by diag(1,2) -> span{[[0,-1/2],[2,0]]}, 2x2 hand computation
    so2 = LinearSubalgebra(2, [Mat([[0, -1], [1, 0]])], name="so(2)")
    t = Mat([[1, 0], [0, 2]])
    got = conjugate(so2, t)
    assert got.span == Subspace.span(4, [Mat([[0, Fraction(-1, 2)], [2, 0]]).flatten()])


def test_conjugate_commutant_invariance():
    # conjugating gl(J0) by an element of GL(J0) fixes the subalgebra
    h = commutant(standard_J(2))
    t = Mat([[1, -1], [1, 1]])  # commutes with J0
    assert (t * standard_J(2)) == (standard_J(2) * t)
    assert conjugate(h, t) == h


def test_commutant_dims():
    assert commutant(Mat.identity(3)).dim == 9
    j = standard_J(2)
    cj = commutant(j)
    assert cj.dim == 2
    assert cj.contains(Mat.identity(2)) and cj.contains(j)
    from torsionlab.builders import tangent_T

    assert commutant(tangent_T(4)).dim == 8


def test_structure_validation():
    j = standard_J(2)
    LinearSubalgebra(2, [j], {"J": j})  # fine: so(2) commutes with J0
    with pytest.raises(StructureError):
        LinearSubalgebra(2, [E(2, 0, 0)], {"J": j})
    with pytest.raises(ValueError):
        LinearSubalgebra(2, [E(2, 0, 1), E(2, 1, 0)])  # not closed
    with pytest.raises(ValueError):
        LinearSubalgebra(2, [E(2, 0, 1), E(2, 0, 1)])  # dependent


def _swapped(triple):
    a, b, c = triple
    return (b, a, c)


# (key, n, a tensor breaking its defining identity, a valid tensor, a
# basis element that does not preserve the valid one)
STRUCTURE_CASES = [
    ("J", 2, Mat([[0, 1], [1, 0]]), standard_J(2), E(2, 0, 0)),
    ("g", 2, Mat([[1, 1], [0, 1]]), Mat.identity(2), E(2, 0, 0)),
    ("omega", 2, Mat.identity(2), Mat([[0, 1], [-1, 0]]), E(2, 0, 0)),
    ("product", 2, Mat.identity(2), Mat([[1, 0], [0, -1]]), E(2, 0, 1)),
    ("tangent", 2, Mat.zeros(2, 2), tangent_T(2), E(2, 0, 0)),
    ("hpc", 2, _swapped(hyperparacomplex_triple(2)), hyperparacomplex_triple(2), E(2, 0, 0)),
    ("hypercomplex", 4, _swapped(quaternion_triple(4)), quaternion_triple(4), E(4, 0, 0)),
]


@pytest.mark.parametrize("key, n, bad, good, outsider", STRUCTURE_CASES, ids=[c[0] for c in STRUCTURE_CASES])
def test_structure_validation_per_key(key, n, bad, good, outsider):
    LinearSubalgebra(n, [], {key: good})
    with pytest.raises(StructureError) as identity:
        LinearSubalgebra(n, [], {key: bad})
    assert "preserve" not in str(identity.value)
    with pytest.raises(StructureError, match=f"does not preserve {key}"):
        LinearSubalgebra(n, [outsider], {key: good})


def test_unknown_structure_key():
    with pytest.raises(StructureError):
        LinearSubalgebra(2, [], {"complex": standard_J(2)}, validate=False)


@pytest.mark.parametrize("build", [lambda: build_gl_C(2), lambda: build_delta_gl(2), lambda: build_so(2, 1)], ids=["endomorphism", "triple", "form"])
def test_conjugate_output_revalidates(build):
    h = build()
    t = Mat([[1 if i == j else (i + 2 * j) % 3 - 1 if i < j else 0 for j in range(h.n)] for i in range(h.n)])
    hc = conjugate(h, t)
    again = LinearSubalgebra(hc.n, hc.basis, hc.structures, validate=True)
    assert again == hc and again.structures == hc.structures and again.structures != h.structures


def test_orthogonal_complement_lorentz():
    g = Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    ctx = MetricContext(g)
    s = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert orthogonal_complement(ctx, s) == Subspace.span(4, [(0, 0, 0, 1)])
    assert not is_degenerate(ctx, s)


def test_degenerate_hyperplane():
    # g = diag(1,-1); the line through e1+e2 is null
    ctx = MetricContext(Mat([[1, 0], [0, -1]]))
    s = Subspace.span(2, [(1, 1)])
    assert is_degenerate(ctx, s)
