"""Catalog of matrix Lie subalgebra builders.

Conventions fixed here once and used everywhere:

* complex structure J0 on R^{2m}: block diagonal of [[0,-1],[1,0]],
  i.e. J0 e_{2i-1} = e_{2i};
* symplectic form omega0 on R^{2m}: e^1^e^2 + ... + e^{2m-1}^e^{2m};
* product tensor P0(p, q) = diag(I_p, -I_q);
* tangent tensor T0 on R^{2m}: e_i -> e_{m+i}, e_{m+i} -> 0;
* hyperparacomplex triple on R^{2m}: J e_i = e_{m+i}, E = diag(I_m,-I_m),
  K = J E;
* quaternionic structure on R^{4k} = H^k: coordinates (1, i, j, k) per
  quaternion, I0/J0/K0 act by left multiplication by i/j/k, so that
  I0 J0 = K0.  gl(k, H) is their commutant (right multiplications); the
  opposite sign convention gives a conjugated subalgebra.

Every classical builder is the stabilizer in gl(n) of the structures it
attaches (``algebras.stabilizer``), cut down by trace rows for sl(m, C)
and su(m); ``algebras.STRUCTURE_KINDS`` says what preserving each one
means.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebras import (
    HYPERPLANE,
    STRUCTURE_KINDS,
    TRIPLE,
    LinearSubalgebra,
    form_rows,
    stabilizer,
    trace_row,
)
from .linalg import Mat, Subspace, fr, kernel


def standard_J(n: int) -> Mat:
    if n % 2:
        raise ValueError("complex structure needs even dimension")
    m = Mat.zeros(n, n).data
    out = [list(r) for r in m]
    for i in range(0, n, 2):
        out[i][i + 1] = Fraction(-1)
        out[i + 1][i] = Fraction(1)
    return Mat(out)


def standard_omega(n: int) -> Mat:
    if n % 2:
        raise ValueError("symplectic form needs even dimension")
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(0, n, 2):
        out[i][i + 1] = Fraction(1)
        out[i + 1][i] = Fraction(-1)
    return Mat(out)


def product_P(n: int, p: int) -> Mat:
    if not 1 <= p <= n - 1:
        raise ValueError("signature requires 1 <= p <= n-1")
    return Mat([[Fraction(1 if i < p else -1) if i == j else Fraction(0) for j in range(n)] for i in range(n)])


def tangent_T(n: int) -> Mat:
    if n % 2:
        raise ValueError("tangent structure needs even dimension")
    m = n // 2
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        out[m + i][i] = Fraction(1)
    return Mat(out)


def hyperparacomplex_triple(n: int):
    if n % 2:
        raise ValueError("hyperparacomplex structure needs even dimension")
    m = n // 2
    j = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        j[m + i][i] = Fraction(1)
        j[i][m + i] = Fraction(-1)
    J = Mat(j)
    E = Mat([[Fraction(1 if i < m else -1) if i == k else Fraction(0) for k in range(n)] for i in range(n)])
    return J, E, J * E


_LEFT_MULT = {
    # images of (1, i, j, k) under left multiplication, as (index, sign)
    "i": [(1, 1), (0, -1), (3, 1), (2, -1)],
    "j": [(2, 1), (3, -1), (0, -1), (1, 1)],
    "k": [(3, 1), (2, 1), (1, -1), (0, -1)],
}


def quaternion_triple(n: int):
    if n % 4:
        raise ValueError("quaternionic structure needs dimension divisible by 4")
    k = n // 4
    mats = []
    for unit in ("i", "j", "k"):
        out = [[Fraction(0)] * n for _ in range(n)]
        for blk in range(k):
            for col, (row, sign) in enumerate(_LEFT_MULT[unit]):
                out[4 * blk + row][4 * blk + col] = Fraction(sign)
        mats.append(Mat(out))
    return tuple(mats)


def _diag(entries) -> Mat:
    n = len(entries)
    return Mat([[fr(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)])


def _stabilizer_algebra(n, structures, name, rows=()):
    """The stabilizer of structures in gl(n), cut down by extra rows."""
    return LinearSubalgebra(n, stabilizer(n, structures, rows), structures, name=name, validate=False)


def build_gl(n):
    basis = [Mat.unflatten(n, n, v) for v in Subspace.full(n * n).basis]
    return LinearSubalgebra(n, basis, name=f"gl({n})", validate=False)


def build_sp(m):
    """sp(2m, R) = {A : A.omega0 = 0} in gl(2m)."""
    n = 2 * m
    return _stabilizer_algebra(n, {"omega": standard_omega(n)}, f"sp({n},R)")


def build_so(p, q=0):
    gram = _diag([1] * p + [-1] * q)
    return _stabilizer_algebra(gram.rows, {"g": gram}, f"so({p},{q})" if q else f"so({p})")


def build_so_g(gram: Mat):
    return _stabilizer_algebra(gram.rows, {"g": gram}, f"so(g)[{gram.rows}]")


def build_gl_C(m):
    n = 2 * m
    return _stabilizer_algebra(n, {"J": standard_J(n)}, f"gl({m},C)")


def build_sl_C(m):
    n = 2 * m
    J = standard_J(n)
    return _stabilizer_algebra(n, {"J": J}, f"sl({m},C)", [trace_row(Mat.identity(n)), trace_row(J)])


def complex_symplectic_omega(k: int) -> Mat:
    """Real part of the standard complex symplectic form on R^{4k}."""
    n = 4 * k
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(k):
        a = 4 * i
        out[a][a + 3] = Fraction(1)
        out[a + 3][a] = Fraction(-1)
        out[a + 1][a + 2] = Fraction(1)
        out[a + 2][a + 1] = Fraction(-1)
    return Mat(out)


def build_sp_C(k):
    n = 4 * k
    structures = {"J": standard_J(n), "omega": complex_symplectic_omega(k)}
    return _stabilizer_algebra(n, structures, f"sp({2 * k},C)")


def build_u(p, q=0, gram=None):
    m = p + q
    n = 2 * m
    J = standard_J(n)
    if gram is None:
        gram = _diag([1] * (2 * p) + [-1] * (2 * q))
    if J.transpose() * gram * J != gram:
        raise ValueError("gram is not J-invariant")
    name = f"u({p},{q})" if q else f"u({m})"
    if gram != _diag([1] * (2 * p) + [-1] * (2 * q)):
        name += "[g]"
    return _stabilizer_algebra(n, {"J": J, "g": gram}, name)


def build_su(m):
    n = 2 * m
    J = standard_J(n)
    return _stabilizer_algebra(n, {"J": J, "g": Mat.identity(n)}, f"su({m})", [trace_row(J)])


def build_gl_H(k):
    n = 4 * k
    triple = quaternion_triple(n)
    return _stabilizer_algebra(n, {"hypercomplex": triple, "J": triple[0]}, f"gl({k},H)")


def build_sp_H(k):
    """sp(k): quaternion-unitary = gl(k,H) skew for the Euclidean metric."""
    n = 4 * k
    triple = quaternion_triple(n)
    return _stabilizer_algebra(n, {"hypercomplex": triple, "J": triple[0], "g": Mat.identity(n)}, f"sp({k})")


def build_delta_gl(m):
    n = 2 * m
    triple = hyperparacomplex_triple(n)
    return _stabilizer_algebra(n, {"hpc": triple, "J": triple[0]}, f"Dgl({m},R)")


def build_delta_so(m):
    n = 2 * m
    triple = hyperparacomplex_triple(n)
    return _stabilizer_algebra(n, {"hpc": triple, "J": triple[0], "g": Mat.identity(n)}, f"Dso({m})")


def build_product_gl(n, p):
    return _stabilizer_algebra(n, {"product": product_P(n, p)}, f"gl(P0)[{n},{p}]")


def build_tangent_gl(m):
    n = 2 * m
    return _stabilizer_algebra(n, {"tangent": tangent_T(n)}, f"gl(T0)[{n}]")


def lagrangian_subspace(m) -> Subspace:
    return Subspace.span(2 * m, [tuple(Fraction(1 if j == 2 * i else 0) for j in range(2 * m)) for i in range(m)])


def build_lagrangian_symplectic(m):
    """The symmetric-plus-coupling algebra of the Lagrangian worked example.

    Lives in gl(2m+1); elements are [[F, u], [omega(u, .), 0]] with F
    omega-symmetric, L = ker F containing im F for the fixed Lagrangian L.
    """
    nu = 2 * m
    omega = standard_omega(nu)
    lag = lagrangian_subspace(m)
    ann = kernel(Mat([list(b) for b in lag.basis], lag.dim, nu)).basis
    # F is omega-self-adjoint, kills L (F b = 0) and maps into L (a F = 0)
    kills_l = [[(i * nu + k, b[k]) for k in range(nu) if b[k]] for b in lag.basis for i in range(nu)]
    into_l = [[(k * nu + j, a[k]) for k in range(nu) if a[k]] for a in ann for j in range(nu)]
    sym_l_basis = stabilizer(nu, {}, form_rows(omega, -1) + kills_l + into_l)
    basis = []
    zero_col = Mat.zeros(nu, 1)
    zero_row = Mat.zeros(1, nu)
    for s in sym_l_basis:
        basis.append(Mat.block([[s, zero_col], [zero_row, Mat.zeros(1, 1)]]))
    for u in lag.basis:
        col = Mat([[x] for x in u], nu, 1)
        row = Mat([[sum(u[i] * omega.data[i][j] for i in range(nu)) for j in range(nu)]], 1, nu)
        basis.append(Mat.block([[Mat.zeros(nu, nu), col], [row, Mat.zeros(1, 1)]]))
    return LinearSubalgebra(
        nu + 1,
        basis,
        {"omega_u": omega, "lagrangian": lag},
        name=f"lagsym({m})",
        validate=False,
    )


_BUILDERS = {
    "gl": lambda p: build_gl(int(p["n"])),
    "sp": lambda p: build_sp(int(p["m"])),
    "so": lambda p: build_so(int(p["p"]), int(p.get("q", 0))),
    "so_g": lambda p: build_so_g(Mat(p["gram"])),
    "gl_C": lambda p: build_gl_C(int(p["m"])),
    "sl_C": lambda p: build_sl_C(int(p["m"])),
    "sp_C": lambda p: build_sp_C(int(p["k"])),
    "u": lambda p: build_u(int(p["p"]), int(p.get("q", 0)), Mat(p["gram"]) if "gram" in p else None),
    "su": lambda p: build_su(int(p["m"])),
    "gl_H": lambda p: build_gl_H(int(p["k"])),
    "sp_H": lambda p: build_sp_H(int(p["k"])),
    "delta_gl": lambda p: build_delta_gl(int(p["m"])),
    "delta_so": lambda p: build_delta_so(int(p["m"])),
    "product_gl": lambda p: build_product_gl(int(p["n"]), int(p["p"])),
    "tangent_gl": lambda p: build_tangent_gl(int(p["m"])),
    "lagrangian_symplectic": lambda p: build_lagrangian_symplectic(int(p["m"])),
}


def builder_names():
    return sorted(_BUILDERS)


def build(spec) -> LinearSubalgebra:
    """Catalog dispatcher.

    Accepts {"builder": name, "params": {...}} or an explicit
    {"basis": [[[...]]], "J"/"g"/...: [[...]], "name": ..., "validate": bool}.
    """
    if "builder" in spec:
        name = spec["builder"]
        if name not in _BUILDERS:
            raise KeyError(f"unknown builder {name!r}; known: {', '.join(builder_names())}")
        return _BUILDERS[name](spec.get("params", {}))
    if "basis" in spec:
        mats = [Mat(b) for b in spec["basis"]]
        if not mats:
            raise ValueError("explicit basis must be non-empty")
        n = mats[0].rows
        structures = {}
        for key, kind in STRUCTURE_KINDS.items():
            if key in spec and kind != HYPERPLANE:
                structures[key] = tuple(Mat(x) for x in spec[key]) if kind == TRIPLE else Mat(spec[key])
        return LinearSubalgebra(
            n,
            mats,
            structures,
            name=spec.get("name", "user"),
            validate=spec.get("validate", True),
        )
    raise ValueError("spec must contain 'builder' or 'basis'")


def witt_gram(n: int) -> Mat:
    """Anti-diagonal Gram; the hyperplane R^{n-1} is degenerate for it."""
    return Mat([[Fraction(1 if i + j == n - 1 else 0) for j in range(n)] for i in range(n)])


def pair_swap_gram(m: int) -> Mat:
    """J0-compatible split Gram [[0, I],[I, 0]] on R^{2m}; degenerate hyperplane."""
    n = 2 * m
    return Mat([[Fraction(1 if abs(i - j) == m else 0) for j in range(n)] for i in range(n)])


def catalog():
    """The fixed list of algebras exercised by the verification suite."""
    return list(_catalog())


@cache
def _catalog():
    # built once per process; LinearSubalgebra is immutable
    return (
        build_sp(2),
        build_sp(3),
        build_gl_C(2),
        build_gl_C(3),
        build_sl_C(2),
        build_sp_C(1),
        build_u(2),
        build_u(3),
        build_u(1, 1),
        build_su(2),
        build_so(3),
        build_so(4),
        build_so(5),
        build_so(2, 2),
        build_so(3, 1),
        build_gl_H(1),
        build_sp_H(1),
        build_delta_gl(2),
        build_delta_gl(3),
        build_delta_so(2),
        build_lagrangian_symplectic(2),
        build_product_gl(4, 2),
        build_tangent_gl(2),
        build_so_g(witt_gram(3)),
        build_so_g(witt_gram(4)),
        build_u(1, 1, gram=pair_swap_gram(2)),
    )
