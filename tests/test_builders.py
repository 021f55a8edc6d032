from fractions import Fraction

import pytest

from reference import block, dense_commutator
from torsionlab.algebras import commutant, is_subalgebra
from torsionlab.builders import (
    build,
    build_delta_gl,
    build_delta_so,
    build_gl,
    build_gl_C,
    build_gl_H,
    build_lagrangian_symplectic,
    build_product_gl,
    build_sl_C,
    build_so,
    build_sp,
    build_sp_C,
    build_sp_H,
    build_su,
    build_tangent_gl,
    build_u,
    build_so_g,
    catalog,
    complex_symplectic_omega,
    hyperparacomplex_triple,
    lagrangian_subspace,
    pair_swap_gram,
    product_P,
    quaternion_triple,
    standard_J,
    standard_omega,
    tangent_T,
    witt_gram,
)
from torsionlab.linalg import Mat, kernel


CLASSICAL_DIMS = [
    (build_sp(2), 2 * (2 * 2 + 1) // 2 * 2),          # m(2m+1), m=2 -> 10
    (build_sp(3), 21),
    (build_u(2), 4),
    (build_u(3), 9),
    (build_u(1, 1), 4),
    (build_su(2), 3),
    (build_su(3), 8),
    (build_so(3), 3),
    (build_so(4), 6),
    (build_so(5), 10),
    (build_so(2, 2), 6),
    (build_so(3, 1), 6),
    (build_gl_C(2), 8),
    (build_gl_C(3), 18),
    (build_sl_C(2), 6),
    (build_sl_C(3), 16),
    (build_sp_C(1), 6),
    (build_gl_H(1), 4),
    (build_gl_H(2), 16),
    (build_sp_H(1), 3),
    (build_delta_gl(2), 4),
    (build_delta_gl(3), 9),
    (build_delta_so(3), 3),
]


@pytest.mark.parametrize("h,dim", CLASSICAL_DIMS, ids=lambda x: getattr(x, "name", str(x)))
def test_classical_dimensions(h, dim):
    assert h.dim == dim


def test_sp_builder_example():
    assert build_sp(2).dim == 10
    assert build_u(2).dim == 4
    assert build_gl_H(1).dim == 4


def test_every_catalog_algebra_is_a_subalgebra():
    for h in catalog():
        assert is_subalgebra(h.basis), h.name


def test_metric_builders_exact_skewness():
    for h in (build_so(3, 1), build_u(2), build_sp_H(1), build_delta_so(2)):
        g = h.structures["g"]
        for f in h.basis:
            assert (g * f + f.transpose() * g).is_zero()


def test_complex_builders_commute_with_J():
    for h in (build_gl_C(2), build_sl_C(3), build_sp_C(1), build_u(2), build_su(3)):
        j = h.structures["J"]
        for f in h.basis:
            assert dense_commutator(f, j).is_zero()


def test_quaternion_triple_relations():
    i0, j0, k0 = quaternion_triple(4)
    assert i0 * j0 == k0
    assert j0 * i0 == -1 * k0
    assert (i0 * i0 + Mat.identity(4)).is_zero()
    assert (k0 * k0 + Mat.identity(4)).is_zero()


def test_gl_H_every_nonzero_element_invertible():
    h = build_gl_H(1)
    rng_coeffs = [(1, 0, 0, 0), (1, 2, 3, 4), (0, 1, 0, 0), (2, -1, 5, 7)]
    for cs in rng_coeffs:
        m = h.element([Fraction(c) for c in cs])
        assert m.rank() == 4


def test_hyperparacomplex_triple():
    j, e, k = hyperparacomplex_triple(4)
    assert (j * j + Mat.identity(4)).is_zero()
    assert e * e == Mat.identity(4)
    assert j * e == k
    assert e * j == -1 * k
    assert k * k == Mat.identity(4)


def test_omega_invariance_of_sp():
    h = build_sp(2)
    om = h.structures["omega"]
    for f in h.basis:
        assert (f.transpose() * om + om * f).is_zero()


def test_product_tangent_builders():
    assert build_product_gl(4, 2).dim == 8
    assert build_tangent_gl(2).dim == 8
    assert build_product_gl(5, 2).dim == 4 + 9


def test_lagrangian_symplectic_builder():
    h = build_lagrangian_symplectic(2)
    assert h.n == 5
    assert h.dim == 3  # Sym_L: m(m-1)/2 = 1, plus dim L = 2
    assert is_subalgebra(h.basis)
    om = h.structures["omega_u"]
    lag = h.structures["lagrangian"]
    for a in lag.basis:
        for b in lag.basis:
            assert sum(a[i] * om.data[i][j] * b[j] for i in range(4) for j in range(4)) == 0


def test_build_dispatcher():
    h = build({"builder": "sp", "params": {"m": 2}})
    assert h.dim == 10 and h.n == 4
    with pytest.raises(KeyError):
        build({"builder": "nope", "params": {}})
    hb = build({"basis": [[[0, -1], [1, 0]]], "name": "so(2)"})
    assert hb.dim == 1
    with pytest.raises(ValueError):
        build({"basis": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]})
    with pytest.raises(ValueError, match="non-empty 'basis'"):
        build({"basis": []})


def test_an_explicit_spec_reads_a_triple():
    from torsionlab.reporting import view

    h = build_delta_gl(2)
    spec = {"basis": [view(b) for b in h.basis], "hpc": [view(x) for x in h.structures["hpc"]]}
    user = build(spec)
    assert user.span == h.span and user.structures == {"hpc": h.structures["hpc"]}


def test_standard_structures_shapes():
    assert standard_J(4) * standard_J(4) == -1 * Mat.identity(4)
    assert standard_omega(4).transpose() == -1 * standard_omega(4)
    assert build_gl(3).dim == 9


# -- reference route: each condition evaluated on the n^2 elementary matrices


def _solve_matrix_space(n, condition_fns):
    """Basis of {F in gl(n) : cond(F) = 0 for every cond}, by evaluating
    each condition (Mat -> Mat or scalar) on the elementary matrices."""
    elem_images = []
    for a in range(n):
        for b in range(n):
            e = [[Fraction(0)] * n for _ in range(n)]
            e[a][b] = Fraction(1)
            elem_images.append(Mat(e))
    rows = []
    for cond in condition_fns:
        images = []
        for e in elem_images:
            val = cond(e)
            images.append(val.flatten() if isinstance(val, Mat) else (Fraction(val),))
        for k in range(len(images[0])):
            rows.append([img[k] for img in images])
    return [Mat.unflatten(n, n, v) for v in kernel(Mat(rows)).basis]


def _skew(gram):
    return lambda f: gram * f + f.transpose() * gram


def _commute(a):
    return lambda f: a * f - f * a


def _diag(entries):
    n = len(entries)
    return Mat([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _ref_delta(m, skew):
    """Dgl(m,R) / Dso(m) by their hand-written block loops."""
    n = 2 * m
    triple = hyperparacomplex_triple(n)
    basis = []
    for a in range(m):
        for b in range(a + 1 if skew else 0, m):
            out = [[Fraction(0)] * n for _ in range(n)]
            out[a][b] = out[m + a][m + b] = Fraction(1)
            if skew:
                out[b][a] = out[m + b][m + a] = Fraction(-1)
            basis.append(Mat(out))
    if skew:
        return basis, f"Dso({m})", {"hpc": triple, "J": triple[0], "g": Mat.identity(n)}
    return basis, f"Dgl({m},R)", {"hpc": triple, "J": triple[0]}


def _ref_lagrangian(m):
    nu = 2 * m
    omega = standard_omega(nu)
    lag = lagrangian_subspace(m)
    ann = Mat([list(r) for r in kernel(Mat([list(b) for b in lag.basis], lag.dim, nu)).basis], m, nu)
    sym_l = _solve_matrix_space(
        nu,
        [
            lambda f: f.transpose() * omega - omega * f,
            lambda f: Mat([f.matvec(b) for b in lag.basis], lag.dim, nu),
            lambda f: ann * f,
        ],
    )
    zero_col, zero_row = Mat.zeros(nu, 1), Mat.zeros(1, nu)
    basis = [block([[s, zero_col], [zero_row, Mat.zeros(1, 1)]]) for s in sym_l]
    for u in lag.basis:
        col = Mat([[x] for x in u], nu, 1)
        row = Mat([[sum(u[i] * omega.data[i][j] for i in range(nu)) for j in range(nu)]], 1, nu)
        basis.append(block([[Mat.zeros(nu, nu), col], [row, Mat.zeros(1, 1)]]))
    return basis, f"lagsym({m})", {"omega_u": omega, "lagrangian": lag}


def _ref(n, conditions, name, structures):
    return _solve_matrix_space(n, conditions), name, structures


def _ref_u(p, q=0, gram=None):
    n = 2 * (p + q)
    j = standard_J(n)
    plain = _diag([1] * (2 * p) + [-1] * (2 * q))
    name = (f"u({p},{q})" if q else f"u({p})") + ("[g]" if gram not in (None, plain) else "")
    gram = plain if gram is None else gram
    return _ref(n, [_commute(j), _skew(gram)], name, {"J": j, "g": gram})


def _ref_quaternionic(k, metric):
    n = 4 * k
    i0, j0, k0 = quaternion_triple(n)
    conditions = [_commute(i0), _commute(j0)] + ([_skew(Mat.identity(n))] if metric else [])
    structures = {"hypercomplex": (i0, j0, k0), "J": i0}
    if metric:
        structures["g"] = Mat.identity(n)
    return _ref(n, conditions, f"sp({k})" if metric else f"gl({k},H)", structures)


def _ref_so(p, q=0):
    gram = _diag([1] * p + [-1] * q)
    return _ref(p + q, [_skew(gram)], f"so({p},{q})" if q else f"so({p})", {"g": gram})


def _ref_complex(m, special):
    n = 2 * m
    j = standard_J(n)
    conditions = [_commute(j)] + ([lambda f: f.trace(), lambda f: (j * f).trace()] if special else [])
    return _ref(n, conditions, f"sl({m},C)" if special else f"gl({m},C)", {"J": j})


def _case(label, build_new, build_ref):
    return pytest.param(build_new, build_ref, id=label)


REFERENCE = [
    *[
        _case(f"sp-{m}", lambda m=m: build_sp(m), lambda m=m: _ref(2 * m, [_skew(standard_omega(2 * m))], f"sp({2 * m},R)", {"omega": standard_omega(2 * m)}))
        for m in (1, 2, 3)
    ],
    *[_case("so-" + "-".join(map(str, pq)), lambda pq=pq: build_so(*pq), lambda pq=pq: _ref_so(*pq)) for pq in ((3,), (4,), (2, 2), (3, 1))],
    *[
        _case(f"so_g-witt{n}", lambda n=n: build_so_g(witt_gram(n)), lambda n=n: _ref(n, [_skew(witt_gram(n))], f"so(g)[{n}]", {"g": witt_gram(n)}))
        for n in (3, 4)
    ],
    *[_case(f"gl_C-{m}", lambda m=m: build_gl_C(m), lambda m=m: _ref_complex(m, False)) for m in (1, 2, 3)],
    *[_case(f"sl_C-{m}", lambda m=m: build_sl_C(m), lambda m=m: _ref_complex(m, True)) for m in (1, 2)],
    *[
        _case(
            f"sp_C-{k}",
            lambda k=k: build_sp_C(k),
            lambda k=k: _ref(
                4 * k,
                [_commute(standard_J(4 * k)), _skew(complex_symplectic_omega(k))],
                f"sp({2 * k},C)",
                {"J": standard_J(4 * k), "omega": complex_symplectic_omega(k)},
            ),
        )
        for k in (1, 2)
    ],
    *[_case("u-" + "-".join(map(str, a)), lambda a=a: build_u(*a), lambda a=a: _ref_u(*a)) for a in ((2,), (3,), (1, 1))],
    _case("u-swap", lambda: build_u(1, 1, gram=pair_swap_gram(2)), lambda: _ref_u(1, 1, pair_swap_gram(2))),
    *[
        _case(
            f"su-{m}",
            lambda m=m: build_su(m),
            lambda m=m: _ref(
                2 * m,
                [_commute(standard_J(2 * m)), _skew(Mat.identity(2 * m)), lambda f: (standard_J(2 * m) * f).trace()],
                f"su({m})",
                {"J": standard_J(2 * m), "g": Mat.identity(2 * m)},
            ),
        )
        for m in (2, 3)
    ],
    *[_case(f"gl_H-{k}", lambda k=k: build_gl_H(k), lambda k=k: _ref_quaternionic(k, False)) for k in (1, 2)],
    *[_case(f"sp_H-{k}", lambda k=k: build_sp_H(k), lambda k=k: _ref_quaternionic(k, True)) for k in (1, 2)],
    *[_case(f"delta_gl-{m}", lambda m=m: build_delta_gl(m), lambda m=m: _ref_delta(m, False)) for m in (2, 3)],
    *[_case(f"delta_so-{m}", lambda m=m: build_delta_so(m), lambda m=m: _ref_delta(m, True)) for m in (2, 3)],
    *[
        _case(
            f"product_gl-{n}-{p}",
            lambda n=n, p=p: build_product_gl(n, p),
            lambda n=n, p=p: _ref(n, [_commute(product_P(n, p))], f"gl(P0)[{n},{p}]", {"product": product_P(n, p)}),
        )
        for n, p in ((4, 2), (5, 2))
    ],
    *[
        _case(
            f"tangent_gl-{m}",
            lambda m=m: build_tangent_gl(m),
            lambda m=m: _ref(2 * m, [_commute(tangent_T(2 * m))], f"gl(T0)[{2 * m}]", {"tangent": tangent_T(2 * m)}),
        )
        for m in (1, 2)
    ],
    *[_case(f"lagsym-{m}", lambda m=m: build_lagrangian_symplectic(m), lambda m=m: _ref_lagrangian(m)) for m in (1, 2)],
    *[
        _case(f"commutant-{i}", lambda a=a: commutant(a), lambda a=a: _ref(a.rows, [_commute(a)], "gl(A)", {}))
        for i, a in enumerate((standard_J(4), tangent_T(4), Mat.identity(3), Mat([[1, 2, 0], [0, 1, -1], [3, 0, 2]])))
    ],
]


@pytest.mark.parametrize("build_new, build_ref", REFERENCE)
def test_stabilizer_equals_elementary_matrix_route(build_new, build_ref):
    h = build_new()
    basis, name, structures = build_ref()
    assert (list(h.basis), h.name, h.structures) == (basis, name, structures)


@pytest.mark.parametrize(
    "params,named",
    [
        ({"builder": "so", "params": {"p": 0}}, "p=0"),
        ({"builder": "so", "params": {"p": 3, "q": -1}}, "parameter q"),
        ({"builder": "so", "params": {"p": 4, "x": 3}}, "parameter 'x'"),
        ({"builder": "so", "params": {}}, "missing parameter 'p'"),
        ({"builder": "sp", "params": {"m": "2.5"}}, "parameter m"),
        ({"builder": "u", "params": {"p": 1, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}, "gram"),
        ({"builder": "so_g", "params": {"gram": "I"}}, "gram"),
        ({"builder": "lagrangian_symplectic", "params": {"m": 0}}, "m=0"),
    ],
)
def test_builder_parameters_are_checked(params, named):
    from torsionlab.builders import ambient_dim

    with pytest.raises(ValueError, match=named):
        build(params)
    if named != "gram":  # the shape of gram is checked by the builder itself
        with pytest.raises(ValueError, match=named):
            ambient_dim(params)


@pytest.mark.parametrize(
    "spec,n",
    [
        ({"builder": "gl", "params": {"n": "40"}}, 40),
        ({"builder": "so", "params": {"p": 3, "q": "2"}}, 5),
        ({"builder": "sp_C", "params": {"k": 3}}, 12),
        ({"builder": "lagrangian_symplectic", "params": {"m": 2}}, 5),
        ({"basis": [[[0, 1], [0, 0]]]}, 2),
    ],
)
def test_ambient_dim_reads_the_parameters(spec, n):
    from torsionlab.builders import ambient_dim

    assert ambient_dim(spec) == n


@pytest.mark.parametrize(
    "make,n",
    [(standard_J, 3), (standard_omega, 3), (tangent_T, 3), (hyperparacomplex_triple, 3), (quaternion_triple, 6)],
)
def test_a_structure_tensor_in_a_dimension_of_the_wrong_parity_is_a_value_error(make, n):
    with pytest.raises(ValueError, match="dimension"):
        make(n)
