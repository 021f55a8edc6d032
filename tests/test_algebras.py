import random
from fractions import Fraction

import pytest

from reference import dense_commutator, dense_is_subalgebra
from torsionlab.algebras import (
    LinearSubalgebra,
    StructureError,
    commutant,
    commutator,
    conjugate,
    is_subalgebra,
    left_span,
    orthogonal_complement,
    product,
)
from torsionlab.builders import (
    build,
    build_delta_gl,
    build_gl_C,
    build_lagrangian_symplectic,
    build_so,
    build_sp,
    catalog,
    hyperparacomplex_triple,
    quaternion_triple,
    standard_J,
    tangent_T,
)
from torsionlab.engine import (
    AlmostAbelian,
    Certificate,
    characteristic_subalgebra,
    connection_space,
    first_prolongation,
    flat_certificate,
    obstruction_space,
    tableau,
)
from torsionlab.linalg import Mat, ShapeError, Subspace, dense, sparse


def E(n, i, j):
    out = [[Fraction(0)] * n for _ in range(n)]
    out[i][j] = Fraction(1)
    return Mat(out)


def test_bracket():
    b = sparse(Mat([[1, 2], [3, 4]]).flatten())
    assert commutator(2, sparse(Mat.identity(2).flatten()), b) == {}
    assert commutator(2, b, b) == {}
    # [E12, E21] = diag(1, -1), by 2x2 hand computation
    assert commutator(2, {1: Fraction(1)}, {2: Fraction(1)}) == {0: 1, 3: -1}
    with pytest.raises(ShapeError):
        dense_commutator(Mat.identity(2), Mat.identity(3))


def _random_mat(rng, n):
    """A rational n x n matrix with about half its entries zero."""
    return Mat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)])


def test_product_and_commutator_match_dense():
    rng = random.Random(11)
    for n in range(2, 7):
        for _ in range(6):
            a, b = _random_mat(rng, n), _random_mat(rng, n)
            sa, sb = sparse(a.flatten()), sparse(b.flatten())
            assert dense(product(n, sa, sb), n * n) == (a * b).flatten()
            assert dense(commutator(n, sa, sb), n * n) == dense_commutator(a, b).flatten()


def test_is_subalgebra():
    assert is_subalgebra(build_sp(1).basis)  # sp(2,R), 3 matrices
    assert is_subalgebra([E(2, 0, 1)])  # abelian
    assert is_subalgebra([E(2, 0, 1), E(2, 0, 0)])
    assert not is_subalgebra([E(2, 0, 1), E(2, 1, 0)])


def _perturbed(rng, basis):
    """basis with 1 added to one entry of one element."""
    basis = list(basis)
    k, i, j = rng.randrange(len(basis)), rng.randrange(basis[0].rows), rng.randrange(basis[0].rows)
    data = [list(row) for row in basis[k].data]
    data[i][j] += 1
    basis[k] = Mat(data)
    return basis


def _unimodular(rng, n):
    lower = Mat([[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(n)] for i in range(n)])
    upper = Mat([[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(n)] for i in range(n)])
    return lower * upper


def test_closure_matches_the_dense_reference():
    """Sparse closure on canonical rows against dense closure on the given
    matrices: every catalog basis, a perturbed copy of each, and random
    unimodular conjugates (dense rows) of the small ones, perturbed too."""
    rng = random.Random(24)
    bases = []
    for h in catalog():
        bases += [h.basis, _perturbed(rng, h.basis)]
        if h.n <= 4:
            t = _unimodular(rng, h.n)
            conj = [t * f * t.inverse() for f in h.basis]
            bases += [conj, _perturbed(rng, conj)]
    outcomes = [is_subalgebra(basis) for basis in bases]
    assert outcomes == [dense_is_subalgebra(basis) for basis in bases]
    assert outcomes.count(False) >= 20 and outcomes.count(True) >= 26


def test_left_span_matches_dense_products():
    # the upper triangular matrices, unlike the others, are not closed under transposition
    upper = LinearSubalgebra(3, [E(3, i, j) for i in range(3) for j in range(i, 3)])
    for h, a in ((build_gl_C(2), standard_J(4)), (build_sp(2), standard_J(4)), (upper, Mat([[1, 2, 0], [0, 1, 0], [3, 0, 1]]))):
        assert left_span(a, h) == Subspace.span(h.n * h.n, [(a * b).flatten() for b in h.basis])


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
    s = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert orthogonal_complement(g, s) == Subspace.span(4, [(0, 0, 0, 1)])
    # s is non-degenerate: it meets its complement only in 0
    assert s.intersect(orthogonal_complement(g, s)).dim == 0


def test_degenerate_hyperplane():
    # g = diag(1,-1); the line through e1+e2 is null, so it is its own complement
    s = Subspace.span(2, [(1, 1)])
    perp = orthogonal_complement(Mat([[1, 0], [0, -1]]), s)
    assert perp == s and s.intersect(perp).dim == 1


# -- the element format: h keeps its elements as sparse flattened rows ------


ELEMENT_BUILDERS = {
    "gl_C(2)": lambda: build_gl_C(2),
    "sp(2)": lambda: build_sp(2),
    "so(2,1)": lambda: build_so(2, 1),
    "Dgl(2)": lambda: build_delta_gl(2),
    "lagsym(1)": lambda: build_lagrangian_symplectic(1),
}


def _unimodular(rng, n):
    """A seeded upper times lower unitriangular integer matrix, which fills
    in most entries of each conjugated element."""
    upper = Mat([[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)])
    lower = Mat([[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)])
    return upper * lower


@pytest.mark.parametrize("build", ELEMENT_BUILDERS.values(), ids=ELEMENT_BUILDERS.keys())
def test_conjugate_is_t_f_t_inverse_element_by_element(build):
    h = build()
    rng = random.Random(28)
    for _ in range(3):
        t = _unimodular(rng, h.n)
        tinv = t.inverse()
        assert conjugate(h, t).basis == tuple(t * f * tinv for f in h.basis)


@pytest.mark.parametrize("build", ELEMENT_BUILDERS.values(), ids=ELEMENT_BUILDERS.keys())
def test_elements_given_as_mats_or_rows_agree(build):
    # conjugated, the elements are in no canonical order, which the flat
    # certificate's first echelon solution reads
    h = build()
    h = conjugate(h, _unimodular(random.Random(5), h.n))
    from_mats = LinearSubalgebra(h.n, h.basis, h.structures)
    from_rows = LinearSubalgebra(h.n, h.rows, h.structures)
    assert from_mats.rows == from_rows.rows == h.rows
    assert from_mats.basis == from_rows.basis == h.basis
    m = h.n - 1
    f = Mat.unflatten(m, m, [sum(xs) for xs in zip(*characteristic_subalgebra(h).basis, [0] * m * m)])
    certs = [flat_certificate(g, AlmostAbelian(f)) for g in (h, from_mats, from_rows)]
    assert all(isinstance(c, Certificate) for c in certs)
    assert certs[0].nabla == certs[1].nabla == certs[2].nabla


def test_a_stored_zero_in_an_element_row_is_dropped():
    h = LinearSubalgebra(2, [{0: Fraction(1), 1: Fraction(0)}, {3: Fraction(2)}])
    assert h.rows == ({0: 1}, {3: 2})
    assert h.basis == (E(2, 0, 0), Mat([[0, 0], [0, 2]]))
    with pytest.raises(ShapeError):
        LinearSubalgebra(3, [Mat.identity(2)])
    with pytest.raises(ShapeError):
        LinearSubalgebra(2, [(1, 0, 0)])


@pytest.mark.parametrize("column", [4, 7, -1], ids=["width", "past-width", "negative"])
def test_an_element_row_column_outside_gl_n_is_a_shape_error(column):
    # gl(2) flattens to 4 columns: 0..3
    with pytest.raises(ShapeError):
        LinearSubalgebra(2, [{column: Fraction(1)}], validate=False)
    assert LinearSubalgebra(2, [{3: Fraction(1)}], validate=False).basis == (Mat([[0, 0], [0, 1]]),)


@pytest.mark.parametrize(
    "spec",
    [
        {"builder": "gl", "params": {"n": 4}},
        {"builder": "sp", "params": {"m": 2}},
        {"builder": "u", "params": {"p": 1, "q": 1}},
        {"builder": "lagrangian_symplectic", "params": {"m": 2}},
        {"basis": [[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]]},
    ],
    ids=["gl(4)", "sp(4)", "u(1,1)", "lagsym(2)", "explicit"],
)
def test_build_and_the_engine_layers_never_densify_an_element(spec, monkeypatch):
    layers = (characteristic_subalgebra, tableau, first_prolongation, connection_space, obstruction_space)
    calls = []
    unflatten = Mat.unflatten.__func__
    monkeypatch.setattr(Mat, "unflatten", classmethod(lambda cls, *args: calls.append(args) or unflatten(cls, *args)))
    h = build(spec)
    for layer in layers:
        layer(h)
    assert calls == []
