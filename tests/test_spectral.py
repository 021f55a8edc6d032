import random
from fractions import Fraction

from torsionlab.linalg import Mat, Subspace, kernel
from reference import block
from torsionlab.polynomials import Poly
from torsionlab.spectral import factor_data, jordan_chains, primary_components


def diag(*entries):
    n = len(entries)
    return Mat([[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)])


def test_spectral_summary_split():
    f = diag(1, 1, 2)
    s = primary_components(f)
    assert s.fully_split
    # a linear factor's component has the dimension of its multiplicity
    assert {(fd.phi.coeffs, fd.dim) for fd in s.split} == {((Fraction(-2), Fraction(1)), 1), ((Fraction(-1), Fraction(1)), 2)}


def test_spectral_summary_rotation():
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 3]])
    s = primary_components(f)
    assert s.fully_split
    quads = [fd.phi for fd in s.split if fd.deg == 2]
    assert quads == [Poly([1, 0, 1])]


def test_spectral_summary_unsplit():
    # companion matrix of x^4 + x + 1 (no rational roots, irreducible over Q)
    f = Mat([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    s = primary_components(f)
    assert not s.fully_split
    assert s.unsplit[0][0].degree == 4


def test_factor_data_block_counts():
    # one 2-block and one 1-block at eigenvalue 1, one 1-block at 2
    f = Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    fd = factor_data(f, Poly([-1, 1]), 3)
    assert fd.dim == 3
    assert fd.block_counts == {1: 1, 2: 1}
    chains = jordan_chains(f, fd)
    assert sorted(len(c) for c in chains) == [1, 2]


def test_jordan_chains_quadratic():
    # two rotation blocks: one 2-chain over the quadratic x^2 + 1? no: two 1-chains
    j2 = Mat([[0, -1], [1, 0]])
    f = block([[j2, None], [None, j2]])
    fd = factor_data(f, Poly([1, 0, 1]), 2)
    assert fd.dim == 4
    assert fd.block_counts == {1: 2}
    chains = jordan_chains(f, fd)
    assert sorted(len(c) for c in chains) == [1, 1]


def test_jordan_chains_quadratic_nilpotent():
    # real form of a size-2 Jordan block over x^2+1: a single 2-chain
    j2 = Mat([[0, -1], [1, 0]])
    f = block([[j2, Mat.identity(2)], [None, j2]])
    fd = factor_data(f, Poly([1, 0, 1]), 2)
    assert fd.block_counts == {2: 1}
    chains = jordan_chains(f, fd)
    assert [len(c) for c in chains] == [2]


def test_achievable_dims():
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    spec = primary_components(f)
    assert spec.fully_split
    assert spec.dims == {0, 1, 2, 3}
    j2 = Mat([[0, -1], [1, 0]])
    f2 = block([[j2, None], [None, j2]])
    spec2 = primary_components(f2)
    assert spec2.fully_split
    assert spec2.dims == {0, 2, 4}


def test_invariant_subspace_construction():
    rng = random.Random(11)
    mats = [
        Mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
        Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]),
        diag(1, 2, 3, 4, 5),
    ]
    for f in mats:
        spec = primary_components(f)
        assert spec.fully_split
        for d in sorted(spec.dims):
            sub = spec.invariant_subspace(d)
            assert sub is not None and sub.dim == d
            for b in sub.basis:
                assert sub.contains(f.matvec(b))


def test_invariant_subspace_respects_obstructions():
    j2 = Mat([[0, -1], [1, 0]])
    f = block([[j2, None], [None, j2]])
    spec = primary_components(f)
    assert spec.invariant_subspace(1) is None
    assert spec.invariant_subspace(3) is None
    assert spec.invariant_subspace(2) is not None


def test_invariant_subspace_unsplit_flags():
    # irreducible quartic: only {0, 4} available
    f = Mat([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    spec = primary_components(f)
    assert not spec.fully_split
    assert spec.dims == {0, 4}
    sub = spec.invariant_subspace(4)
    assert sub == Subspace.full(4)


def test_multiplicity_one_unsplit_piece_builds_its_kernel_only_when_picked(monkeypatch):
    from torsionlab import spectral

    # a generic f whose characteristic polynomial is an irreducible quintic
    f = Mat([[2, -1, 0, 3, 1], [1, 0, -2, 1, 4], [-3, 2, 1, 0, -1], [0, 5, -1, 2, 2], [1, 1, 3, -2, 0]])
    spec = primary_components(f)
    assert spec.split == () and [(q.degree, mult) for q, mult in spec.unsplit] == [(5, 1)]
    ladders = []
    real_ladder = spectral._kernel_ladder
    monkeypatch.setattr(spectral, "_kernel_ladder", lambda *a: ladders.append(a) or real_ladder(*a))
    assert spec.dims == {0, 5}
    assert spec.invariant_subspace(0) == Subspace.zero(5)
    assert ladders == []
    assert spec.invariant_subspace(5) == Subspace.full(5)
    assert len(ladders) == 1


def test_one_factoring_per_yun_factor(monkeypatch):
    """chi = (x - 1)^2 (x - 2) (x^2 + 1) (x^3 - 2): the finder runs once on
    each of the two Yun factors, and no squarefree part is taken."""
    from torsionlab import polynomials, spectral

    companion = Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # x^3 - 2
    f = block([[Mat([[1, 1], [0, 1]]), None, None, None], [None, Mat([[2]]), None, None],
               [None, None, Mat([[0, -1], [1, 0]]), None], [None, None, None, companion]])
    yun = polynomials.squarefree_decomposition(polynomials.char_poly(f))
    assert [mult for _, mult in yun] == [1, 2]
    finds, sqfs = [], []
    real_find, real_sqf = polynomials.low_degree_factors, polynomials.squarefree_part
    monkeypatch.setattr(spectral, "low_degree_factors", lambda q: finds.append(q) or real_find(q))
    monkeypatch.setattr(polynomials, "low_degree_factors", lambda q: finds.append(q) or real_find(q))
    monkeypatch.setattr(polynomials, "squarefree_part", lambda p: sqfs.append(p) or real_sqf(p))
    spec = primary_components(f)
    assert finds == [q for q, _ in yun] and sqfs == []
    assert [(fd.phi, fd.dim) for fd in spec.split] == [(Poly([-2, 1]), 1), (Poly([1, 0, 1]), 2), (Poly([-1, 1]), 2)]
    assert spec.unsplit == ((Poly([-2, 0, 0, 1]), 1),)


def test_unsplit_flag_ties_keep_the_first_choice():
    # chi = (x^3 - 2)(x^3 - 3)^2 with one Jordan block for x^3 - 3: both
    # unsplit pieces reach dimension 3, and the flags 0, 3 of the first
    # (multiplicity-1) piece are listed in that order, so the pick is
    # ker q(f) from the second piece
    p, q = Poly([-2, 0, 0, 1]), Poly([-3, 0, 0, 1])
    q2 = (q * q).coeffs
    companion = Mat([[1 if i == j + 1 else 0 for j in range(5)] + [-q2[i]] for i in range(6)])
    f = block([[Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]]), None], [None, companion]])
    spec = primary_components(f)
    assert list(spec.unsplit) == [(p, 1), (q, 2)]
    assert spec.dims == {0, 3, 6, 9}
    assert spec.invariant_subspace(3) == kernel(q.eval_mat(f))


def test_random_conjugation_chains():
    rng = random.Random(23)
    base = Mat([[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]])
    for _ in range(5):
        while True:
            t = Mat([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
            if t.rank() == 5:
                break
        f = t * base * t.inverse()
        spec = primary_components(f)
        assert spec.fully_split
        prof = {fd.phi.coeffs: fd.block_counts for fd in spec.split}
        assert prof[(Fraction(-1), Fraction(1))] == {1: 1, 2: 1}
        assert prof[(Fraction(1), Fraction(0), Fraction(1))] == {1: 1}
        for fd in spec.split:
            chains = jordan_chains(f, fd)
            assert sum(len(c) for c in chains) * fd.deg == fd.dim


def test_jordan_chains_quadratic_height_three():
    j2 = Mat([[0, -1], [1, 0]])
    i2 = Mat.identity(2)
    z = Mat.zeros(2, 2)
    f = block([[j2, i2, z], [z, j2, i2], [z, z, j2]])
    fd = factor_data(f, Poly([1, 0, 1]), 3)
    assert fd.block_counts == {3: 1}
    chains = jordan_chains(f, fd)
    assert [len(c) for c in chains] == [3]
