import gc
import random
import sys
import weakref
from fractions import Fraction

import pytest

from torsionlab.builders import (
    build_gl,
    build_gl_C,
    build_gl_H,
    build_so,
    build_sp,
    build_u,
    catalog,
    standard_J,
)
from torsionlab.engine import (
    AlmostAbelian,
    Certificate,
    ConnectionTensor,
    Refusal,
    characteristic_subalgebra,
    check_torsion_free,
    connection_space,
    curvature_tensor,
    first_prolongation,
    flat_certificate,
    nijenhuis,
    obstruction_space,
    tableau,
    torsion_maps,
    torsion_tensor,
)
from torsionlab import engine, profiles
from torsionlab.algebras import LinearSubalgebra
from torsionlab.linalg import Mat, ShapeError, Subspace, Value, image_on_kernel, kernel
from torsionlab.polynomials import Poly
from torsionlab.spectral import primary_components
import reference
from reference import block


def E(n, i, j):
    out = [[Fraction(0)] * n for _ in range(n)]
    out[i][j] = Fraction(1)
    return Mat(out)


def elementary_flat(m, i, j):
    return E(m, i, j).flatten()


def sp_char_block_subspace():
    """Expected k~ for sp(4,R): [[A, 0], [w^t, a]] with A in sp(2,R)."""
    sp2 = build_sp(1)
    vecs = []
    for a in sp2.basis:
        big = block([[a, Mat.zeros(2, 1)], [Mat.zeros(1, 2), Mat.zeros(1, 1)]])
        vecs.append(big.flatten())
    vecs += [elementary_flat(3, 2, 0), elementary_flat(3, 2, 1), elementary_flat(3, 2, 2)]
    return Subspace.span(9, vecs)


def glC_char_block_subspace():
    """Expected k~ for gl(2,C): [[A, v], [0, a]] with A in gl(1,C)."""
    vecs = [
        block([[Mat.identity(2), Mat.zeros(2, 1)], [Mat.zeros(1, 2), Mat.zeros(1, 1)]]).flatten(),
        block([[standard_J(2), Mat.zeros(2, 1)], [Mat.zeros(1, 2), Mat.zeros(1, 1)]]).flatten(),
        elementary_flat(3, 0, 2),
        elementary_flat(3, 1, 2),
        elementary_flat(3, 2, 2),
    ]
    return Subspace.span(9, vecs)


def test_characteristic_subalgebra_gl():
    h = build_gl(4)
    k = characteristic_subalgebra(h)
    assert k == Subspace.full(9)


def test_characteristic_subalgebra_sp4():
    k = characteristic_subalgebra(build_sp(2))
    assert k.dim == 6
    assert k == sp_char_block_subspace()


def test_characteristic_subalgebra_gl2C():
    k = characteristic_subalgebra(build_gl_C(2))
    assert k.dim == 5
    assert k == glC_char_block_subspace()


def test_tableau_and_prolongation_so4():
    h = build_so(4)
    kt = tableau(h)
    assert kt.dim == 6
    k1 = first_prolongation(h)
    # S^2(R^3)* tensor e_4: symmetric pairs (i,j) with value along the last axis
    vecs = []
    n, m = 4, 3
    for i in range(3):
        for j in range(i, 3):
            flat = [Fraction(0)] * (m * m * n)
            flat[i * m * n + j * n + 3] = Fraction(1)
            flat[j * m * n + i * n + 3] = Fraction(1)
            vecs.append(flat)
    assert k1 == Subspace.span(36, vecs)
    assert k1.dim == 6


def test_prolongation_trivial_cases():
    assert first_prolongation(build_gl_H(1)).dim == 0
    zero = LinearSubalgebra(3, [], name="0")
    assert tableau(zero).dim == 0
    assert first_prolongation(zero).dim == 0


def test_connection_space_gl2():
    # n = 2: a single hyperplane direction, no symmetry constraints
    d = connection_space(build_gl(2))
    assert d.dim == 8
    assert d.contains([Fraction(0)] * 8)


def test_connection_space_independent_route():
    # Zassenhaus oracle: D = ((R^n)* x h) meet (symmetric on hyperplane pairs)
    for h in (build_sp(2), build_u(2)):
        n = h.n
        ambient = n**3
        tens = []
        for i in range(n):
            for b in h.basis:
                flat = [Fraction(0)] * ambient
                for k in range(n):
                    for j in range(n):
                        flat[i * n * n + j * n + k] = b.data[k][j]
                tens.append(flat)
        span_h = Subspace.span(ambient, tens)
        sym_vecs = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if i < n - 1 and j < n - 1 and i != j:
                        continue
                    flat = [Fraction(0)] * ambient
                    flat[i * n * n + j * n + k] = Fraction(1)
                    sym_vecs.append(flat)
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                for k in range(n):
                    flat = [Fraction(0)] * ambient
                    flat[i * n * n + j * n + k] = Fraction(1)
                    flat[j * n * n + i * n + k] = Fraction(1)
                    sym_vecs.append(flat)
        sym = Subspace.span(ambient, sym_vecs)
        assert connection_space(h) == span_h.intersect(sym)


def reference_obstruction_space(h):
    """F by the kernel-then-T1 route: a kernel basis of T2, then T1 on each vector."""
    t1, t2 = torsion_maps(h)
    return Subspace.span((h.n - 1) ** 2, [t1.matvec(c) for c in kernel(t2).basis])


def reference_characteristic_subalgebra(h):
    """k~ by the coefficient route: coefficients of the elements of h with
    a zero last row on R^{n-1}, then the top-left block of each element."""
    m = h.n - 1
    if h.dim == 0:
        return Subspace.zero(m * m)
    rows = [[b.data[m][j] for b in h.basis] for j in range(m)]
    coeffs = kernel(Mat(rows, m, h.dim)).basis
    return Subspace.span(
        m * m, [h.element(c).submatrix(range(m), range(m)).flatten() for c in coeffs]
    )


def test_zassenhaus_matches_reference_routes():
    for h in catalog() + [build_gl(n) for n in (4, 5, 6)]:
        assert obstruction_space(h) == reference_obstruction_space(h), h.name
        assert characteristic_subalgebra(h) == reference_characteristic_subalgebra(h), h.name


def reference_first_prolongation(h):
    """K^(1) by its own symmetric kernel: X_a = sum_t c_at K_t over the
    tableau basis K_t for each hyperplane direction a, with the
    coefficients c cut down by X_a(e_b) = X_b(e_a) for a < b < n - 1."""
    n, m = h.n, h.n - 1
    ambient = m * m * n
    values = tableau(h).basis
    dom = [(a, t) for a in range(m) for t in range(len(values))]
    rows = [
        [(values[t][k * m + b] if i == a else 0) - (values[t][k * m + a] if i == b else 0) for i, t in dom]
        for a in range(m)
        for b in range(a + 1, m)
        for k in range(n)
    ]
    coeffs = kernel(Mat(rows, len(rows), len(dom))).basis
    nonzero = [[(k, b, x) for k in range(n) for b in range(m) if (x := value[k * m + b])] for value in values]
    vecs = []
    for cv in coeffs:
        flat = [Fraction(0)] * ambient
        for (a, t), c in zip(dom, cv):
            for k, b, x in nonzero[t] if c else ():
                flat[a * m * n + b * n + k] += c * x
        vecs.append(flat)
    return Subspace.span(ambient, vecs)


def criterion_07_conjugates():
    """Every product/tangent orbit conjugate the criterion-07 sweep builds."""
    from torsionlab.algebras import conjugate
    from torsionlab.builders import build_product_gl, build_tangent_gl
    from torsionlab.existence import orbit_catalog

    out = []
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        out += [conjugate(build_product_gl(n, p), rep["T"]) for rep in orbit_catalog("product", n, p=p).reps]
    for n in (4, 6):
        out += [conjugate(build_tangent_gl(n // 2), rep["T"]) for rep in orbit_catalog("tangent", n).reps]
    return out


def test_prolongation_is_the_restricted_connection_space():
    algebras = catalog() + [build_gl(n) for n in (4, 5, 6)] + criterion_07_conjugates()
    assert len(algebras) == 26 + 3 + 4 * 3 + 2 * 2
    for h in algebras:
        assert first_prolongation(h) == reference_first_prolongation(h), h.name


def test_zero_algebra_spaces():
    zero = LinearSubalgebra(3, [], name="0")
    assert characteristic_subalgebra(zero) == Subspace.zero(4)
    assert connection_space(zero) == Subspace.zero(27)
    assert obstruction_space(zero) == Subspace.zero(4)


SPACES = (characteristic_subalgebra, tableau, first_prolongation, connection_space, engine._torsion_maps, obstruction_space)


def _live(cls):
    gc.collect()
    return sum(isinstance(obj, cls) for obj in gc.get_objects())


def test_an_algebra_frees_its_engine_results_and_profile_with_it():
    before = _live(Subspace)
    h = build_u(2)
    results = [layer(h) for layer in SPACES]
    assert profiles.crosscheck(h)["all_equal"]
    assert all(layer(h) is kept for layer, kept in zip(SPACES, results))
    assert profiles._normal_group.__wrapped__ in h._memo
    ref = weakref.ref(h)
    gc.disable()
    try:
        # nothing h keeps points back at h: reference counting alone frees it
        del h, results
        assert ref() is None
    finally:
        gc.enable()
    assert _live(Subspace) == before


def test_an_equal_span_computes_its_own_results():
    h = build_sp(2)
    copy = LinearSubalgebra(h.n, h.rows, h.structures, name="copy", validate=False)
    assert copy == h
    for layer in SPACES:
        assert layer(copy) is not layer(h) and layer(copy) == layer(h)
    assert copy.basis is not h.basis and copy.basis == h.basis
    assert profiles.profile(copy).W is not profiles.profile(h).W and profiles.profile(copy).W == profiles.profile(h).W


def test_the_only_package_caches_are_bounded():
    # engine results and profiles live on the algebra; a functools cache
    # (found by cache_clear) must hold a bounded number of entries
    import torsionlab.cli  # noqa: F401 -- loads every module

    found = set()
    for name, module in list(sys.modules.items()):
        if name == "torsionlab" or name.startswith("torsionlab."):
            for value in vars(module).values():
                for obj in [value, *(vars(value).values() if isinstance(value, type) else ())]:
                    if callable(getattr(obj, "cache_clear", None)):
                        found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == {"torsionlab.builders._catalog", "torsionlab.cli.build_parser", "torsionlab.existence._standard_algebra"}


VALUE_CLASSES = {
    "Mat": lambda: Mat([[1, 2], [3, 4]]),
    "Subspace": lambda: Subspace.span(2, [(1, 0)]),
    "Poly": lambda: Poly([1, 2]),
    "FactorData": lambda: primary_components(Mat([[1, 1], [0, 1]])).split[0],
    "Spectrum": lambda: primary_components(Mat([[1, 1], [0, 1]])),
    "LinearSubalgebra": lambda: build_sp(1),
    "AlmostAbelian": lambda: AlmostAbelian(Mat([[1, 1], [0, 1]])),
    "ConnectionTensor": lambda: ConnectionTensor(1, [0]),
    "Certificate": lambda: Certificate("torsion-free", ConnectionTensor(1, [0]), ()),
    "Refusal": lambda: Refusal("f is not in F_h", ()),
    "StructuralProfile": lambda: profiles.profile(build_sp(1)),
}
RECORDS = ("FactorData", "Spectrum", "Certificate", "Refusal", "StructuralProfile")


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_a_value_refuses_set_and_del(name):
    value = VALUE_CLASSES[name]()
    assert type(value).__name__ == name
    field = type(value).__slots__[0]
    before = getattr(value, field)
    for attempt in (lambda: setattr(value, field, None), lambda: delattr(value, field), lambda: setattr(value, "x", 1)):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            attempt()
    assert getattr(value, field) is before


def test_a_refused_del_leaves_the_value_whole():
    h, m = build_sp(1), Mat([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        del h._memo
    with pytest.raises(AttributeError):
        del m.data
    assert obstruction_space(h) == obstruction_space(build_sp(1))
    assert repr(m) == "Mat[2x2: 1 2; 3 4]"


def test_equal_keys_make_equal_values_with_the_hash_of_the_key():
    m = Mat([[1, 2], [3, 4]])
    s = Subspace.span(3, [(1, 2, 0), (0, 0, 5)])
    h = build_sp(1)
    cases = [
        (m, Mat([["1", 2], [3, "4"]]), hash((2, 2, m.data))),
        (s, Subspace.span(3, [(0, 0, 1), (2, 4, 0)]), hash((3, tuple(tuple(r.items()) for r in s.rows)))),
        (Poly([1, 2, 0]), Poly([1, 2]), hash((Fraction(1), Fraction(2)))),
        (AlmostAbelian(m), AlmostAbelian(Mat(m.data)), hash(m)),
        (ConnectionTensor(1, [3]), ConnectionTensor(1, ["3"]), hash((1, (Fraction(3),)))),
        (h, LinearSubalgebra(2, h.rows, validate=False), hash((2, h.span))),
    ]
    for a, b, hashed in cases:
        assert a == b and a is not b and hash(a) == hash(b) == hashed
    assert AlmostAbelian(m) != m and Poly([1]) != (Fraction(1),)
    assert Mat([[1, 2], [3, 5]]) != m and Subspace.span(3, [(1, 0, 0)]) != s


def test_the_records_compare_by_identity_and_stay_hashable():
    for name in RECORDS:
        a, b = VALUE_CLASSES[name](), VALUE_CLASSES[name]()
        assert a == a and a != b and hash(a) == hash(a) and len({a, b}) == 2


def test_only_the_value_base_refuses_set_and_del_and_every_eq_has_a_hash():
    # a value class takes immutability, equality and hash from Value, so
    # a class that copies a raiser back in, or whose __eq__ leaves it
    # unhashable, is caught here
    import torsionlab.cli  # noqa: F401 -- loads every module

    setters, unhashable = set(), set()
    for name, module in list(sys.modules.items()):
        if name == "torsionlab" or name.startswith("torsionlab."):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == name:
                    attrs = vars(cls)
                    if "__setattr__" in attrs or "__delattr__" in attrs:
                        setters.add(cls.__qualname__)
                    if "__eq__" in attrs and attrs.get("__hash__") is None:
                        unhashable.add(cls.__qualname__)
    assert setters == {"Value"} and unhashable == set()
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(VALUE_CLASSES)


def test_transversal_normalized_before_cache():
    h = build_sp(2)
    e_n = tuple(Fraction(x) for x in (0, 0, 0, 1))
    # the sparse maps and F are cached per algebra; e_n given as a list or
    # a tuple gives the default maps
    t1, t2 = torsion_maps(h)
    assert engine._torsion_maps(h) is engine._torsion_maps(h)
    assert torsion_maps(h) == (t1, t2)
    assert obstruction_space(h) is obstruction_space(h)
    assert torsion_maps(h, [0, 0, 0, 1]) == torsion_maps(h, e_n) == (t1, t2)
    with pytest.raises(ValueError):
        torsion_maps(h, [1, 0, 0, 0])
    with pytest.raises(ShapeError):
        torsion_maps(h, [0, 0, 1])


def apply_torsion(gamma, n, v):
    """Reference: T(nabla) = (nabla_v - nabla v) on R^{n-1}, as an n x (n-1)
    matrix, evaluated from the definition at any transversal v."""
    out = []
    for k in range(n):
        row = []
        for a in range(n - 1):
            s = Fraction(0)
            for i in range(n):
                if v[i] != 0:
                    s += v[i] * (gamma[i * n * n + a * n + k] - gamma[a * n * n + i * n + k])
            row.append(s)
        out.append(row)
    return Mat(out, n, n - 1)


def split_torsion(tmat: Mat, v):
    """Reference: split T(nabla) along R^n = R^{n-1} + span(v) into (T1, T2)."""
    n = tmat.rows
    beta = [tmat.data[n - 1][a] / v[n - 1] for a in range(n - 1)]
    t1 = Mat(
        [[tmat.data[k][a] - beta[a] * v[k] for a in range(n - 1)] for k in range(n - 1)],
        n - 1,
        n - 1,
    )
    return t1, tuple(beta)


def reference_torsion_maps(h, v):
    """(T1, T2) at the transversal v, one definition-level evaluation per D basis vector."""
    m = h.n - 1
    cols = [split_torsion(apply_torsion(gamma, h.n, v), v) for gamma in connection_space(h).basis]
    t1_cols = [t1.flatten() for t1, _ in cols]
    t1 = Mat([[col[r] for col in t1_cols] for r in range(m * m)], m * m, len(cols))
    t2 = Mat([[t2[r] for _, t2 in cols] for r in range(m)], m, len(cols))
    return t1, t2


def reference_certificate(h, maps, f, v):
    """gamma solving the torsion-free system with the maps (T1, T2) at v,
    [T2; T1] x = [0; v_n f] (ad(v) on the hyperplane is v_n f), or None
    when f is not in F."""
    n = h.n
    t1, t2 = maps
    rhs = [Fraction(0)] * (n - 1) + [v[n - 1] * x for x in f.flatten()]
    sol = reference.dense_solve([list(r) for r in t2.data] + [list(r) for r in t1.data], rhs)
    if sol is None:
        return None
    gamma = [Fraction(0)] * n**3
    for c, basis_vec in zip(sol, connection_space(h).basis):
        if c != 0:
            gamma = [x + c * y for x, y in zip(gamma, basis_vec)]
    return tuple(gamma)


def reference_transversals(n):
    """A hyperplane part with v_n = 1, v_n != 1 alone, and both."""
    return [
        tuple(Fraction({0: 1, n - 1: 1}.get(i, 0)) for i in range(n)),
        tuple(Fraction({n - 1: Fraction(-1, 2)}.get(i, 0)) for i in range(n)),
        tuple(Fraction({0: 2, 1: Fraction(-1, 3), n - 1: 3}.get(i, 0)) for i in range(n)),
    ]


def test_torsion_read_at_e_n_matches_the_definition_at_any_transversal():
    """The engine reads T once at e_n; the reference evaluates the
    definition at each v and solves with right-hand side v_n f.  Maps at
    v, F and every certificate or refusal must agree exactly."""
    rng = random.Random(11)
    algebras = catalog() + [build_gl(n) for n in (4, 5, 6)] + criterion_07_conjugates()
    for h in algebras:
        m = h.n - 1
        fs = obstruction_space(h)
        generic = Mat([[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)])
        combo = [sum((i + 1) * b[c] for i, b in enumerate(fs.basis)) for c in range(m * m)]
        queries = [(f, check_torsion_free(h, AlmostAbelian(f))) for f in (Mat.unflatten(m, m, combo), generic)]
        for v in reference_transversals(h.n):
            t1, t2 = maps = reference_torsion_maps(h, v)
            assert torsion_maps(h, v) == maps, (h.name, v)
            assert fs == image_on_kernel(m, m * m, zip(t2.transpose().data, t1.transpose().data)), (h.name, v)
            for f, res in queries:
                gamma = reference_certificate(h, maps, f, v)
                if gamma is None:
                    assert isinstance(res, Refusal) and res.residual == fs.reduce(f.flatten()), (h.name, v)
                else:
                    assert isinstance(res, Certificate) and res.nabla.gamma == gamma, (h.name, v)


def test_torsion_of_zero_connection():
    h = build_gl(3)
    v = (0, 0, 1)
    tm = apply_torsion([Fraction(0)] * 27, 3, tuple(Fraction(x) for x in v))
    assert tm.is_zero()


def test_torsion_of_direction_only_connection():
    # nabla with only nabla_{e_n} = F, F preserving the hyperplane:
    # T1 = F restricted, T2 = 0
    n = 3
    f_mat = Mat([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    gamma = [Fraction(0)] * 27
    for j in range(3):
        for k in range(3):
            gamma[(n - 1) * 9 + j * 3 + k] = f_mat.data[k][j]
    v = tuple(Fraction(x) for x in (0, 0, 1))
    t1, t2 = split_torsion(apply_torsion(gamma, 3, v), v)
    assert t1 == Mat([[1, 2], [3, 4]])
    assert t2 == (Fraction(0), Fraction(0))


def test_obstruction_space_sp4_equals_char():
    h = build_sp(2)
    f_space = obstruction_space(h)
    assert f_space.dim == 6
    assert f_space == characteristic_subalgebra(h) == sp_char_block_subspace()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_obstruction_space_so_full(n):
    assert obstruction_space(build_so(n)) == Subspace.full((n - 1) * (n - 1))


def test_obstruction_space_u2():
    h = build_u(2)
    f_space = obstruction_space(h)
    assert f_space.dim == 2
    expected = Subspace.span(
        9,
        [
            block([[standard_J(2), Mat.zeros(2, 1)], [Mat.zeros(1, 2), Mat.zeros(1, 1)]]).flatten(),
            elementary_flat(3, 2, 2),
        ],
    )
    assert f_space == expected
    assert characteristic_subalgebra(h).dim == 1


def test_v_independence():
    # T2 and F = T1(ker T2) read through any transversal are those at e_n
    h = build_sp(2)
    base = obstruction_space(h)
    t2 = torsion_maps(h)[1]
    for v in [(0, 0, 0, 1), (1, 0, 0, 1), (2, -1, 3, 5), (0, 0, 0, -2)]:
        t1_v, t2_v = torsion_maps(h, v)
        assert t2_v == t2
        assert image_on_kernel(3, 9, zip(t2_v.transpose().data, t1_v.transpose().data)) == base
    with pytest.raises(ValueError):
        torsion_maps(h, (1, 0, 0, 0))


def test_check_torsion_free_glC_certificate():
    h = build_gl_C(2)
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    res = check_torsion_free(h, AlmostAbelian(f))
    assert isinstance(res, Certificate)
    assert res.residuals["torsion_max_abs"] == 0
    tors = torsion_tensor(res.nabla, AlmostAbelian(f))
    assert all(x == 0 for x in tors)


def test_check_torsion_free_refusal():
    h = build_sp(2)
    f = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])  # upper-right entry breaks the block form
    res = check_torsion_free(h, AlmostAbelian(f))
    assert isinstance(res, Refusal)
    assert any(x != 0 for x in res.residual)


def test_check_torsion_free_zero_f():
    for h in (build_sp(2), build_u(2), build_gl_H(1)):
        res = check_torsion_free(h, AlmostAbelian(Mat.zeros(h.n - 1, h.n - 1)))
        assert isinstance(res, Certificate)
        assert res.nabla.is_zero()


def test_flat_certificate_zero():
    res = flat_certificate(build_sp(2), AlmostAbelian(Mat.zeros(3, 3)))
    assert isinstance(res, Certificate)
    assert res.nabla.is_zero()


def test_flat_certificate_sp4():
    f = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # A = [[0,1],[0,0]] in sp(2,R)
    res = flat_certificate(build_sp(2), AlmostAbelian(f))
    assert isinstance(res, Certificate)
    aa = AlmostAbelian(f)
    assert all(x == 0 for x in torsion_tensor(res.nabla, aa))
    assert all(x == 0 for x in curvature_tensor(res.nabla, aa))


def test_flat_certificate_so4_rotation():
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    res = flat_certificate(build_so(4), AlmostAbelian(f))
    assert isinstance(res, Certificate)


def test_flat_certificate_refusal():
    f = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    res = flat_certificate(build_sp(2), AlmostAbelian(f))
    assert isinstance(res, Refusal)


def test_tensors_zero_for_abelian():
    aa = AlmostAbelian(Mat.zeros(2, 2))
    zero = ConnectionTensor(3, [0] * 27)
    assert all(x == 0 for x in torsion_tensor(zero, aa))
    assert all(x == 0 for x in curvature_tensor(zero, aa))


def test_generic_connection_has_torsion():
    rng = random.Random(3)
    f = Mat([[1, 2], [0, 1]])
    aa = AlmostAbelian(f)
    gamma = [Fraction(rng.randint(-3, 3)) for _ in range(27)]
    tors = torsion_tensor(ConnectionTensor(3, gamma), aa)
    assert any(x != 0 for x in tors)


def test_nijenhuis_abelian_zero():
    aa = AlmostAbelian(Mat.zeros(3, 3))
    j = standard_J(4)
    assert all(x == 0 for x in nijenhuis(j, aa))


def test_nijenhuis_integrable_complex():
    # f in the gl(2,C) block pattern -> J0 is integrable on g_f
    f = Mat([[0, -1, 1], [1, 0, 2], [0, 0, 3]])
    aa = AlmostAbelian(f)
    assert all(x == 0 for x in nijenhuis(standard_J(4), aa))


def test_nijenhuis_nonintegrable():
    f = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])  # not in the gl(2,C) block form
    aa = AlmostAbelian(f)
    vals = nijenhuis(standard_J(4), aa)
    assert any(x != 0 for x in vals)


def test_k_char_inside_obstruction():
    for h in (build_sp(2), build_u(2), build_so(4), build_gl_C(2), build_gl_H(1)):
        kt = characteristic_subalgebra(h)
        fs = obstruction_space(h)
        assert fs.contains_space(kt)


def test_check_torsion_free_with_hyperplane_map():
    # conjugating by the identity must not change the verdict
    h = build_sp(2)
    f = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    res = check_torsion_free(h, AlmostAbelian(f), hyperplane_map=Mat.identity(4))
    assert isinstance(res, Certificate)


def test_so4_realizes_elementary_f():
    # F_{so(4)} = End(R^3), so the system T(nabla) = e^1 x e_1 is solvable
    h = build_so(4)
    f = E(3, 0, 0)
    res = check_torsion_free(h, AlmostAbelian(f))
    assert isinstance(res, Certificate)
    v = tuple(Fraction(1 if i == 3 else 0) for i in range(4))
    t1, t2 = split_torsion(apply_torsion(res.nabla.gamma, 4, v), v)
    assert t1 == f
    assert all(x == 0 for x in t2)


def test_check_torsion_free_nonspecial_type():
    # product type [U3]: straighten by the orbit map, then certify an
    # f matching the [U3] pattern and refuse one breaking it
    from torsionlab.builders import build_product_gl
    from torsionlab.existence import orbit_catalog, product_obstruction
    from torsionlab.engine import Refusal

    n, p = 4, 2
    h = build_product_gl(n, p)
    t3 = orbit_catalog("product", n, p=p).reps[2]["T"]
    pattern = product_obstruction(n, p, 3)
    f_good = Mat([[1, 0, 2], [0, 3, 4], [0, 0, 5]])
    assert pattern.contains(f_good.flatten())
    res = check_torsion_free(h, AlmostAbelian(f_good), hyperplane_map=t3)
    assert isinstance(res, Certificate)
    f_bad = Mat([[1, 1, 0], [0, 3, 0], [0, 0, 5]])
    assert not pattern.contains(f_bad.flatten())
    res = check_torsion_free(h, AlmostAbelian(f_bad), hyperplane_map=t3)
    assert isinstance(res, Refusal)


def test_certificate_with_custom_transversal():
    # the certificate, read at another transversal v, has T1 = v_n f, T2 = 0
    h = build_u(2)
    f = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
    v = tuple(Fraction(x) for x in (1, 0, -1, 2))
    res = check_torsion_free(h, AlmostAbelian(f))
    assert isinstance(res, Certificate)
    assert all(x == 0 for x in torsion_tensor(res.nabla, AlmostAbelian(f)))
    t1, t2 = split_torsion(apply_torsion(res.nabla.gamma, 4, v), v)
    assert t1 == f.scale(v[3])
    assert all(x == 0 for x in t2)


def test_n2_boundary_so2():
    # n = 2: F_{so(2)} is all of End(R^1) but k~ vanishes, so every f is
    # torsion-free for the metric group while only f = 0 is flat
    so2 = LinearSubalgebra(2, [Mat([[0, -1], [1, 0]])], name="so(2)")
    assert obstruction_space(so2) == Subspace.full(1)
    assert characteristic_subalgebra(so2).dim == 0
    assert isinstance(check_torsion_free(so2, AlmostAbelian(Mat([[1]]))), Certificate)
    assert isinstance(flat_certificate(so2, AlmostAbelian(Mat([[1]]))), Refusal)
    assert isinstance(flat_certificate(so2, AlmostAbelian(Mat([[0]]))), Certificate)


def test_tensors_equal_dense_references():
    """torsion, curvature and Nijenhuis on the sparse bracket table against
    the loops over every index tuple, on random f, random connections and
    random A, n = 3..6."""
    rng = random.Random(2024)

    def entry(density):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else Fraction(0)

    seen = set()
    for trial in range(24):
        n = 3 + trial % 4
        f = Mat([[entry(0.6) for _ in range(n - 1)] for _ in range(n - 1)])
        aa = AlmostAbelian(f)
        gamma = tuple(entry((0.15, 0.5)[trial % 2]) for _ in range(n**3))
        nabla = ConnectionTensor(n, gamma)
        tors, curv = torsion_tensor(nabla, aa), curvature_tensor(nabla, aa)
        assert tors == reference.torsion_tensor(gamma, f)
        assert curv == reference.curvature_tensor(gamma, f)
        a = Mat([[entry(0.5) for _ in range(n)] for _ in range(n)])
        nij = nijenhuis(a, aa)
        assert nij == reference.nijenhuis(a, f)
        seen.add((any(tors), any(curv), any(nij)))
    assert (True, True, True) in seen
