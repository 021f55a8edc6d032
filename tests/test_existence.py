import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from torsionlab.algebras import conjugate
from torsionlab.builders import build_product_gl, build_tangent_gl
from torsionlab.engine import AlmostAbelian, obstruction_space
from torsionlab import existence
from torsionlab.existence import (
    admits_torsion_free,
    classify_hyperparacomplex,
    decide_product,
    decide_tangent,
    existence_group,
    hpc_flatness,
    orbit_catalog,
    product_eigendims,
    product_obstruction,
    tangent_obstruction,
)
from torsionlab.linalg import Mat, Subspace
from reference import block


def diag(*entries):
    n = len(entries)
    return Mat([[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)])


def block_diag(*blocks):
    return block([[b if i == j else None for j in range(len(blocks))] for i, b in enumerate(blocks)])


def rand_invertible(rng, n, lo=-2, hi=2):
    while True:
        t = Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
        if t.rank() == n:
            return t


def test_orbit_catalog_counts():
    assert len(orbit_catalog("product", 4, p=2).reps) == 3
    assert len(orbit_catalog("tangent", 4).reps) == 2
    assert len(orbit_catalog("gl_C", 4).reps) == 1
    with pytest.raises(KeyError):
        orbit_catalog("nope", 4)


def test_orbit_maps_straighten():
    hyper = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    for group, kw in (("product", {"p": 2}), ("tangent", {})):
        cat = orbit_catalog(group, 4, **kw)
        for rep in cat.reps:
            t = rep["T"]
            assert t.rank() == 4
            image = Subspace.span(4, [t.matvec(b) for b in rep["subspace"].basis])
            assert image == hyper


def test_product_reps_nonconjugate():
    cat = orbit_catalog("product", 5, p=2)
    invs = [product_eigendims(rep["subspace"], 5, 2) for rep in cat.reps]
    assert len(set(invs)) == 3


def test_pattern_dims():
    assert product_obstruction(4, 2, 1).dim == 7
    assert product_obstruction(4, 2, 3).dim == 5
    assert product_obstruction(4, 3, 1).dim == 9  # q - 1 = 0: no constraints
    assert tangent_obstruction(4, 1).dim == 5
    assert tangent_obstruction(4, 2).dim == 8
    with pytest.raises(ValueError):
        tangent_obstruction(2, 1)
    with pytest.raises(ValueError):
        tangent_obstruction(5, 1)


@pytest.mark.parametrize("p", [Fraction(3, 2), True, Fraction(2), "2", None])
def test_a_signature_that_is_not_an_int_is_refused(p):
    # 1.5 used to answer "no" for every type and "yes" overall, True was read as 1
    with pytest.raises(ValueError, match="signature 1 <= p <= 3"):
        admits_torsion_free("product", AlmostAbelian(diag(1, 2, 3)), p=p)
    with pytest.raises(ValueError, match="signature"):
        existence_group("product").check(4, 1.5)


def test_a_group_without_a_signature_refuses_p():
    with pytest.raises(ValueError, match="gl_C structures take no signature p"):
        admits_torsion_free("gl_C", AlmostAbelian(diag(1, 2, 3)), p=3)
    with pytest.raises(ValueError, match="tangent structures take no signature p"):
        orbit_catalog("tangent", 4, p=2)


@pytest.mark.parametrize("n", [4.0, True, Fraction(4)])
def test_a_dimension_that_is_not_an_int_is_refused(n):
    with pytest.raises(ValueError, match="product structures need n >= 2"):
        orbit_catalog("product", n, p=1)


def test_a_pattern_type_that_is_not_an_int_is_refused():
    with pytest.raises(ValueError, match="type must be an int 1..3, got True"):
        product_obstruction(4, 2, True)
    with pytest.raises(ValueError, match="type must be an int 1..2, got 1.0"):
        tangent_obstruction(4, 1.0)


@pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (5, 3), (6, 3)])
def test_product_patterns_match_engine(n, p):
    h = build_product_gl(n, p)
    cat = orbit_catalog("product", n, p=p)
    for t_index, rep in enumerate(cat.reps, start=1):
        hp = conjugate(h, rep["T"])
        assert product_obstruction(n, p, t_index) == obstruction_space(hp), (n, p, t_index)


@pytest.mark.parametrize("n", [4, 6])
def test_tangent_patterns_match_engine(n):
    h = build_tangent_gl(n // 2)
    cat = orbit_catalog("tangent", n)
    for t_index, rep in enumerate(cat.reps, start=1):
        hp = conjugate(h, rep["T"])
        assert tangent_obstruction(n, t_index) == obstruction_space(hp), (n, t_index)


def test_decide_product_zero():
    res = decide_product(AlmostAbelian(Mat.zeros(3, 3)), 2)
    assert res["verdict"] == "yes"
    assert res["basis"] is not None


def test_decide_product_rotation_block():
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    res = decide_product(AlmostAbelian(f), 2)
    assert res["verdict"] == "yes"
    assert res["basis"] is not None
    assert res["type"] in ("[U1]", "[U2]")


def test_decide_product_irreducible_quartic():
    f = Mat([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    res = decide_product(AlmostAbelian(f), 2)
    assert res["verdict"] == "yes"
    assert res["basis"] is None
    assert res["rule"] == "existence-only"


def test_decide_product_random_seeded():
    rng = random.Random(20240812)
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        for _ in range(25):
            f = Mat([[rng.randint(-4, 4) for _ in range(n - 1)] for _ in range(n - 1)])
            res = decide_product(AlmostAbelian(f), p)
            assert res["verdict"] == "yes"


def test_decide_tangent_zero_and_blocks():
    res = decide_tangent(AlmostAbelian(Mat.zeros(3, 3)))
    assert res["verdict"] == "yes" and res["basis"] is not None
    f = Mat([[1, 0, 0], [2, 3, 0], [4, 5, 6]])  # block triangular (2,1)
    res = decide_tangent(AlmostAbelian(f))
    assert res["verdict"] == "yes" and res["basis"] is not None


def test_decide_tangent_irrational_spectrum():
    # companion of x^5 - x - 1: invariant dims are only {0, 5}
    f = Mat(
        [
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ]
    )
    res = decide_tangent(AlmostAbelian(f))
    assert res["verdict"] == "yes"
    assert res["basis"] is None


def test_decide_tangent_random_seeded():
    rng = random.Random(99)
    for n in (4, 6):
        for _ in range(25):
            f = Mat([[rng.randint(-4, 4) for _ in range(n - 1)] for _ in range(n - 1)])
            res = decide_tangent(AlmostAbelian(f))
            assert res["verdict"] == "yes"


def test_classify_hpc_examples():
    res = classify_hyperparacomplex(AlmostAbelian(diag(1, 1, 2)))
    assert res["verdict"] == "yes_caseA"
    res = classify_hyperparacomplex(AlmostAbelian(diag(1, 2, 3)))
    assert res["verdict"] == "no"
    res = classify_hyperparacomplex(AlmostAbelian(Mat.zeros(3, 3)))
    assert res["verdict"] == "yes_caseA"
    with pytest.raises(ValueError):
        classify_hyperparacomplex(AlmostAbelian(Mat.zeros(4, 4)))  # n = 5 odd


def test_classify_hpc_pattern_sweep_case_a():
    # conjugated case-A pattern matrices must always be recognized
    rng = random.Random(7)
    for m, a_blocks in [
        (2, [diag(1)]),
        (2, [diag(0)]),
        (3, [diag(1, 1), diag(1, 2), Mat([[1, 1], [0, 1]]), Mat([[0, -1], [1, 0]])]),
    ]:
        for a_block in a_blocks:
            mm = m - 1
            for a_val in (0, 1, 2):
                w1 = [rng.randint(-2, 2) for _ in range(mm)]
                w2 = [rng.randint(-2, 2) for _ in range(mm)]
                rows = []
                for i in range(mm):
                    rows.append([a_block.data[i][j] for j in range(mm)] + [0] * mm + [w1[i]])
                for i in range(mm):
                    rows.append([0] * mm + [a_block.data[i][j] for j in range(mm)] + [w2[i]])
                rows.append([0] * (2 * mm) + [a_val])
                f = Mat(rows)
                t = rand_invertible(rng, 2 * m - 1)
                fc = t * f * t.inverse()
                res = classify_hyperparacomplex(AlmostAbelian(fc))
                assert res["verdict"] == "yes_caseA", (m, a_block, a_val)
                assert res["basis"] is not None


def case_b_matrix(m, u1, u2, a_val):
    """The paper's five-block case-B form with A = 1 and couplings u1, u2."""
    mm = m - 2
    rows = []
    for i in range(mm):
        rows.append([1 if i == j else 0 for j in range(mm)] + [0] * mm + [u1[i], -u2[i], u1[i]])
    for i in range(mm):
        rows.append([0] * mm + [1 if i == j else 0 for j in range(mm)] + [u2[i], u1[i], -u2[i]])
    for t in range(3):
        rows.append([0] * (2 * mm) + [a_val if k == t else 0 for k in range(3)])
    return Mat(rows)


def test_classify_hpc_pattern_sweep_case_b():
    # conjugated case-B pattern matrices are recognized in case A
    rng = random.Random(13)
    inputs = []
    for m in (3, 4):
        for a_val in (1, 2):
            u1 = [rng.randint(-2, 2) for _ in range(m - 2)]
            u2 = [rng.randint(-2, 2) for _ in range(m - 2)]
            inputs.append((m, u1, u2, a_val, rand_invertible(rng, 2 * m - 1)))
    rng = random.Random(5)
    for m, u1v, u2v, a_val in [(3, 1, 0, 2), (3, 1, 1, 1), (4, 2, -1, 0), (2, 0, 0, 3)]:
        inputs.append((m, [u1v] * (m - 2), [u2v] * (m - 2), a_val, rand_invertible(rng, 2 * m - 1)))
    for m, u1, u2, a_val, tmat in inputs:
        fc = tmat * case_b_matrix(m, u1, u2, a_val) * tmat.inverse()
        res = classify_hyperparacomplex(AlmostAbelian(fc))
        assert res["verdict"] == "yes_caseA", (m, a_val, u1, u2)
        assert res["basis"].rank() == res["basis"].rows


def test_hpc_flatness_paper_recomputation():
    data = {
        "verdict": "yes_caseA",
        "A": Mat([[-1]]),
        "a": Fraction(1),
        "w1": (Fraction(-2),),
        "w2": (Fraction(0),),
        "lam": Fraction(0),
        "mu": Fraction(1),
    }
    res = hpc_flatness(AlmostAbelian(Mat([[-1, 0, -2], [0, -1, 0], [0, 0, 1]])), data)
    assert res["flat"] is False
    assert res["witness"] == (Fraction(-2),)
    assert res["expected_eigenvalue"] == 2


def test_hpc_flatness_trivial_and_eigen():
    base = {"verdict": "yes_caseA", "A": Mat([[4]]), "a": Fraction(2), "lam": Fraction(1), "mu": Fraction(1)}
    res = hpc_flatness(AlmostAbelian(Mat.zeros(3, 3)), {**base, "w1": (Fraction(0),), "w2": (Fraction(0),)})
    assert res["flat"] is True
    # w in the 2a-eigenspace of A
    res = hpc_flatness(AlmostAbelian(Mat.zeros(3, 3)), {**base, "w1": (Fraction(3),), "w2": (Fraction(0),)})
    assert res["flat"] is True


def test_classify_hpc_flatness_roundtrip():
    # a certified case-A structure feeds straight into the flatness test
    f = diag(1, 1, 2)
    res = classify_hyperparacomplex(AlmostAbelian(f))
    flat = hpc_flatness(AlmostAbelian(f), res)
    assert flat["flat"] in (True, False)


def test_admits_product_family():
    # two rotation blocks: invariant dimensions are {0, 2, 4}
    f = block(
        [[Mat([[0, -1], [1, 0]]), None], [None, Mat([[0, -3], [3, 0]])]]
    )
    res = admits_torsion_free("product", AlmostAbelian(f), p=2)
    assert res["overall"] == "yes"
    verdicts = {t["type"]: t["verdict"] for t in res["types"]}
    assert verdicts["[U1]"] == "yes"  # q - 1 = 2 is achievable
    assert verdicts["[U2]"] == "no"  # p - 1 = 1 is not
    assert set(verdicts) == {"[U1]", "[U2]", "[U3]"}


@pytest.mark.parametrize(
    "f, p, verdicts",
    [
        # x^2 - 2 has the real eigenlines of +-sqrt2: over R the basis
        # S = [(sqrt2, 1, 0), e_3, e_1] puts f in the [U3] pattern
        ([[0, 2, 0], [1, 0, 0], [0, 0, 1]], 2, ["yes", "yes", "unknown"]),
        ([[0, 2], [1, 0]], 1, ["unknown", "yes", "unknown"]),
        # a complex pair supplies only even dimensions, so no stays no
        ([[0, -2, 0], [1, 0, 0], [0, 0, 1]], 2, ["yes", "yes", "no"]),
        ([[0, -2], [1, 0]], 1, ["no", "yes", "no"]),
    ],
    ids=["x2-2-n4", "x2-2-n3", "x2+2-n4", "x2+2-n3"],
)
def test_real_rooted_quadratic_gives_unknown_not_no(f, p, verdicts):
    res = admits_torsion_free("product", AlmostAbelian(Mat(f)), p=p)
    assert [t["verdict"] for t in res["types"]] == verdicts


def test_admits_glC_family():
    f_block = Mat([[0, -1, 1], [1, 0, 2], [0, 0, 3]])
    res = admits_torsion_free("gl_C", AlmostAbelian(f_block))
    assert res["overall"] == "yes"
    res = admits_torsion_free("gl_C", AlmostAbelian(diag(1, 2, 3)))
    assert res["overall"] == "no"


def test_admits_unitary_family():
    assert admits_torsion_free("u", AlmostAbelian(diag(1, 2, 3)))["overall"] == "no"
    rot = Mat([[0, -2, 0], [2, 0, 0], [0, 0, 5]])
    assert admits_torsion_free("u", AlmostAbelian(rot))["overall"] == "yes"
    non_semisimple = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert admits_torsion_free("u", AlmostAbelian(non_semisimple))["overall"] == "yes"
    shear = Mat([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    assert admits_torsion_free("u", AlmostAbelian(shear))["overall"] == "no"
    # the primitive 8th roots of unity beside 0: chi = x (x^4 + 1), and
    # r(x) = x^2 + 1 has no real root, so no theta is real
    eighth = Mat([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert admits_torsion_free("u", AlmostAbelian(block([[eighth, None], [None, Mat.zeros(1, 1)]])))["overall"] == "no"


@pytest.mark.parametrize("group", ["u", "su"])
def test_unitary_needs_a_semisimple_f(group):
    # both have the spectrum {i, i, -i, -i, 0}; only the second is semisimple
    r, i2 = Mat([[0, -1], [1, 0]]), Mat.identity(2)
    jordan = block([[r, i2, None], [None, r, None], [None, None, Mat.zeros(1, 1)]])
    rotations = block([[r, None, None], [None, r, None], [None, None, Mat.zeros(1, 1)]])
    assert admits_torsion_free(group, AlmostAbelian(jordan))["overall"] == "no"
    assert admits_torsion_free(group, AlmostAbelian(rotations))["overall"] == "yes"


def test_admits_su_family():
    # su(2)-block spectrum {2i, -2i} realized by two real rotation blocks
    rot2 = Mat([[0, -2], [2, 0]])
    f = block([[rot2, None, None], [None, rot2, None], [None, None, Mat.zeros(1, 1)]])
    assert admits_torsion_free("su", AlmostAbelian(f))["overall"] == "yes"
    # m = 2: F_{su(2)} = su(1) = 0, so a nonzero rotation is refused
    rot_only = Mat([[0, -2, 0], [2, 0, 0], [0, 0, 0]])
    assert admits_torsion_free("su", AlmostAbelian(rot_only))["overall"] == "no"
    rot_traced = Mat([[0, -2, 0], [2, 0, 0], [0, 0, 5]])
    assert admits_torsion_free("su", AlmostAbelian(rot_traced))["overall"] == "no"
    # the companion block of x^4 + 3 x^2 + 1 = r(x^2), r = x^2 + 3x + 1: its
    # thetas are irrational, so rational_split leaves r whole
    companion = Mat([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, -3], [0, 0, 1, 0]])
    f = block([[companion, None], [None, Mat.zeros(1, 1)]])
    assert admits_torsion_free("su", AlmostAbelian(f))["overall"] == "unknown"
    assert admits_torsion_free("u", AlmostAbelian(f))["overall"] == "yes"


def test_admits_glH_family():
    assert admits_torsion_free("gl_H", AlmostAbelian(diag(3, 3, 3)))["overall"] == "yes"
    assert admits_torsion_free("gl_H", AlmostAbelian(diag(1, 2, 3)))["overall"] == "no"
    # three 1-blocks at 1 beside the rotations of x^2 + 1 and x^2 + 4: the
    # complex pairs' odd block counts do not count
    f = block_diag(Mat([[0, -1], [1, 0]]), Mat([[0, -4], [1, 0]]), diag(1, 1, 1))
    assert admits_torsion_free("gl_H", AlmostAbelian(f))["overall"] == "yes"


def test_family_dimension_guards():
    with pytest.raises(ValueError):
        admits_torsion_free("u", AlmostAbelian(Mat.zeros(2, 2)))  # n = 3 odd
    with pytest.raises(ValueError):
        admits_torsion_free("gl_H", AlmostAbelian(Mat.zeros(5, 5)))  # n = 6 not 4k
    with pytest.raises(KeyError):
        admits_torsion_free("so", AlmostAbelian(Mat.zeros(3, 3)))


# eigenvalue 1 with blocks 2 + 1 + 1, a rotation block and a 1-block at 2
QUERY_F = block(
    [
        [Mat([[1, 1], [0, 1]]), None, None, None],
        [None, diag(1, 1), None, None],
        [None, None, Mat([[0, -1], [1, 0]]), None],
        [None, None, None, diag(2)],
    ]
)


@pytest.mark.parametrize(
    "call, tables",
    [
        (lambda aa: admits_torsion_free("product", aa, p=3), 1),
        (lambda aa: admits_torsion_free("tangent", aa), 1),
        (lambda aa: admits_torsion_free("gl_C", aa), 0),
        (lambda aa: admits_torsion_free("gl_H", aa), 0),
        (classify_hyperparacomplex, 0),
    ],
    ids=["product", "tangent", "gl_C", "gl_H", "hpc"],
)
def test_one_primary_decomposition_per_query(monkeypatch, call, tables):
    """One Spectrum record per query, built without a Sturm count; the
    subset-sum table behind dims and invariant_subspace is built once,
    and only by the groups that read it."""
    from torsionlab import existence, polynomials, spectral

    calls, sturm, parts = [], [], []
    real, real_sturm, real_parts = spectral.primary_components, polynomials.count_real_roots, spectral._invariant_parts

    def counted(f):
        before = len(sturm)
        spec = real(f)
        calls.append(len(sturm) - before)
        return spec

    def counted_sturm(*a):
        sturm.append(a)
        return real_sturm(*a)

    monkeypatch.setattr(spectral, "primary_components", counted)
    monkeypatch.setattr(existence, "primary_components", counted)
    monkeypatch.setattr(spectral, "count_real_roots", counted_sturm)
    monkeypatch.setattr(polynomials, "count_real_roots", counted_sturm)
    monkeypatch.setattr(spectral, "_invariant_parts", lambda *a: parts.append(a) or real_parts(*a))
    call(AlmostAbelian(QUERY_F))
    assert calls == [0]
    assert len(parts) == tables


def test_block_removal_tries_the_largest_block_first():
    """Under modulus 1 every removal passes, so the search returns the
    first one it tries: the largest block, or triple, at the eigenvalue."""
    from torsionlab.existence import _block_removal, _triple_blocks
    from torsionlab.spectral import primary_components

    j2 = Mat([[1, 1], [0, 1]])
    single = primary_components(block_diag(Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), diag(0)))
    assert _block_removal(single.split, 1)[1] == [3]
    triple = primary_components(block_diag(j2, j2, j2, diag(1, 1, 1)))
    assert _block_removal(triple.split, 1, _triple_blocks)[1] == [2, 2, 2]


SWEEP_BLOCKS = [
    lambda a: Mat([[a]]),
    lambda a: Mat([[a, 1], [0, a]]),
    lambda a: Mat([[a, 1, 0], [0, a, 1], [0, 0, a]]),
    lambda a: Mat([[0, -1], [1, 0]]),  # x^2 + 1
    lambda a: Mat([[0, 2], [1, 0]]),  # x^2 - 2, real irrational roots
    lambda a: Mat([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]),  # (x^2 + 1)^2, one block
    lambda a: Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]]),  # x^3 - 2, unsplit
    lambda a: Mat([[0, 0, 1], [1, 0, 3], [0, 1, 0]]),  # x^3 - 3x - 1, unsplit, three real roots
]


def sweep_matrix(rng, m):
    """A conjugated block-diagonal f of size m, blocks often repeated."""
    blocks = []
    left = m
    while left:
        b = rng.choice(SWEEP_BLOCKS)(rng.choice((0, 1)))
        for _ in range(rng.choice((1, 2))):
            if b.rows <= left:
                blocks.append(b)
                left -= b.rows
    f = block([[b if i == j else None for j in range(len(blocks))] for i, b in enumerate(blocks)])
    return conjugated(rng, f)


def conjugated(rng, f):
    """t f t^-1 for a random unimodular t = lower * upper."""
    m = f.rows
    lower = Mat([[1 if i == j else (rng.randint(-1, 1) if i > j else 0) for j in range(m)] for i in range(m)])
    upper = Mat([[1 if i == j else (rng.randint(-1, 1) if i < j else 0) for j in range(m)] for i in range(m)])
    t = lower * upper
    return t * f * t.inverse()


def sweep_verdicts(aa):
    """Every verdict and rule the spectral deciders give for one f."""
    n = aa.n
    out = []
    for p in range(1, n):
        res = admits_torsion_free("product", aa, p=p)
        d = res["detail"]
        out.append(["product", p, [[t["type"], t["verdict"]] for t in res["types"]], d["type"], d["rule"]])
    groups = []
    if n % 2 == 0:
        res = admits_torsion_free("tangent", aa)
        d = res["detail"]
        out.append(["tangent", [[t["type"], t["verdict"]] for t in res["types"]], d["type"], d["rule"]])
        res = classify_hyperparacomplex(aa)
        out.append(["hpc", res["verdict"], res["rule"]])
        groups += ["gl_C", "u", "su"]
    if n % 4 == 0:
        groups += ["gl_H"]
    for g in groups:
        out.append([g, admits_torsion_free(g, aa)["overall"]])
    return out


# SHA-256 of the seed-7 sweep below, recorded when a split quadratic with
# two real roots stopped giving a typed "no"; a changed verdict or rule moves it
SWEEP_DIGEST = "a9a37a5ed9c7734e4f26028c5599b38963865caf59bc9c5b9812f7621af86fc3"


def test_spectral_verdict_sweep_is_pinned():
    # sl_C and sp_C are decided by membership in F, not by the spectrum,
    # and are left out; every verdict class of the other groups occurs
    rng = random.Random(7)
    rows = [sweep_verdicts(AlmostAbelian(sweep_matrix(rng, n - 1))) for n in range(4, 9) for _ in range(4)]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == SWEEP_DIGEST


HPC_EIGENVALUES = (0, 1, -2)


def partitions(k, largest=None):
    """The partitions of k, parts in decreasing order."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - part, part):
            yield (part, *rest)


def jordan_types(size):
    """Every Jordan type of size x size with eigenvalues in HPC_EIGENVALUES:
    one partition, possibly empty, per eigenvalue."""
    for sizes in itertools.product(range(size + 1), repeat=len(HPC_EIGENVALUES)):
        if sum(sizes) == size:
            yield from itertools.product(*(partitions(k) for k in sizes))


def jordan_matrix(jtype):
    entries = {}
    start = 0
    for lam, parts in zip(HPC_EIGENVALUES, jtype):
        for s in parts:
            for i in range(start, start + s):
                entries[i, i] = lam
                if i + 1 < start + s:
                    entries[i, i + 1] = 1
            start += s
    return Mat([[entries.get((i, j), 0) for j in range(start)] for i in range(start)])


def hpc_jordan_sweep(ns):
    """(n, verdict, rule, basis) of classify_hyperparacomplex on every
    Jordan type of each size n - 1, each under a seed-11 unimodular
    conjugation."""
    rng = random.Random(11)
    rows = []
    for n in ns:
        for jtype in jordan_types(n - 1):
            res = classify_hyperparacomplex(AlmostAbelian(conjugated(rng, jordan_matrix(jtype))))
            basis = res.get("basis")
            rows.append([n, res["verdict"], res["rule"], None if basis is None else [[str(x) for x in r] for r in basis.data]])
    return rows


# SHA-256 of hpc_jordan_sweep((4, 6)), recorded while the classifier still
# ran the five-block case-B search after case A
HPC_SWEEP_DIGEST = "0c0fc24350449ded45a25096f45631670347bd3e764951f22049b4ff134b7149"


def test_hpc_jordan_sweep_is_pinned():
    rows = hpc_jordan_sweep((4, 6))
    assert len(rows) == 130
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == HPC_SWEEP_DIGEST


@pytest.mark.parametrize("group", ["product", "tangent", "gl_C", "sl_C", "sp_C", "u", "su", "gl_H"])
def test_orbits_and_verdicts_share_the_dimension_rule(group):
    # orbit_catalog accepts exactly the n that admits_torsion_free accepts
    for n in range(2, 9):
        p = 1 if group == "product" else None
        try:
            admits_torsion_free(group, AlmostAbelian(Mat.zeros(n - 1, n - 1)), p=p)
            admitted = True
        except ValueError:
            admitted = False
        try:
            orbit_catalog(group, n, p=p)
            listed = True
        except ValueError:
            listed = False
        assert admitted == listed, (group, n)


def test_every_group_is_one_table_entry():
    from torsionlab.existence import GROUPS

    for name, group in GROUPS.items():
        assert group.name == name
        labels = [o.label for o in group.orbits]
        assert labels == [f"[U{k}]" for k in range(1, len(labels) + 1)]
        p = 1 if group.signature else None
        res = admits_torsion_free(name, AlmostAbelian(Mat.zeros(3, 3)), p=p)  # n = 4 fits every group
        assert [t["type"] for t in res.get("types", [])] == labels
        with pytest.raises(ValueError):
            group.check(5 if group.modulus > 1 else 1, p)


def test_deciders_use_the_table_patterns():
    # every basis a decider returns puts f into the listed pattern of its type
    from torsionlab.existence import GROUPS

    rng = random.Random(5)
    for _ in range(20):
        f = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
        for name, res, k in (
            ("product", decide_product(AlmostAbelian(f), 2), 2),
            ("tangent", decide_tangent(AlmostAbelian(f)), 2),
        ):
            if res["basis"] is None:
                continue
            orbit = next(o for o in GROUPS[name].orbits if o.label == res["type"])
            assert orbit.pattern(4, k).contains(res["conjugated"].flatten())


def test_hpc_family_is_the_hpc_classifier():
    f = diag(1, 1, 2)
    res = admits_torsion_free("hpc", AlmostAbelian(f))
    assert res["overall"] == "yes_caseA"
    assert res["detail"] == classify_hyperparacomplex(AlmostAbelian(f))
    assert "types" not in res
    with pytest.raises(KeyError):
        orbit_catalog("hpc", 4)


@pytest.mark.parametrize(
    "squares,verdict",
    [
        ((1, 1, 4), "yes"),  # thetas 1 + 1 - 2 = 0 share one rational-square class
        ((1, 4), "no"),
        ((2, 2, 8), "yes"),  # sqrt2 + sqrt2 - 2 sqrt2 = 0
        ((2, 8), "no"),
        ((Fraction(1, 4), Fraction(1, 4), 1), "yes"),
        ((2, 3, 5), "no"),  # three classes, one theta each
    ],
)
def test_su_cancellation_within_a_rational_square_class(squares, verdict):
    # f = diag(J_1, ..., J_k, 0) with J_i of characteristic polynomial x^2 + theta_i^2
    blocks = [Mat([[0, -1], [t, 0]]) for t in squares] + [Mat([[0]])]
    f = block([[b if i == j else None for j in range(len(blocks))] for i, b in enumerate(blocks)])
    assert admits_torsion_free("su", AlmostAbelian(f))["overall"] == verdict


def test_membership_groups_build_their_standard_algebra_once_per_m(monkeypatch):
    # sl_C and sp_C read F of the standard algebra at m = n // modulus; it
    # is built once per (group, m), and keeps its F
    existence._standard_algebra.cache_clear()
    built = []
    for name in ("sl_C", "sp_C"):
        group = existence.GROUPS[name]
        builder = group.builder
        monkeypatch.setitem(existence.GROUPS, name, group._replace(builder=lambda m, b=builder, g=name: built.append((g, m)) or b(m)))
    rng = random.Random(3)
    for _ in range(3):
        for name, n in (("sl_C", 4), ("sl_C", 6), ("sp_C", 4), ("sp_C", 8)):
            f = Mat([[rng.randint(-1, 1) for _ in range(n - 1)] for _ in range(n - 1)])
            assert admits_torsion_free(name, AlmostAbelian(f))["overall"] in ("yes", "unknown")
            assert admits_torsion_free(name, AlmostAbelian(Mat.zeros(n - 1, n - 1)))["overall"] == "yes"
    assert sorted(built) == [("sl_C", 2), ("sl_C", 3), ("sp_C", 1), ("sp_C", 2)]
    existence._standard_algebra.cache_clear()
