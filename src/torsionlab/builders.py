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
    check_identity,
    form_rows,
    padded,
    stabilizer,
    trace_row,
)
from .linalg import Mat, Subspace, kernel_rows, sparse_sum
from .reporting import mat_from_json


def _pairs(n, sign):
    """The entries of the block diagonal of [[0, sign], [-sign, 0]] blocks."""
    out = {}
    for i in range(0, n, 2):
        out[i, i + 1], out[i + 1, i] = sign, -sign
    return out


def standard_J(n: int) -> Mat:
    if n % 2:
        raise ValueError("complex structure needs even dimension")
    return Mat.from_entries(n, _pairs(n, -1))


def standard_omega(n: int) -> Mat:
    if n % 2:
        raise ValueError("symplectic form needs even dimension")
    return Mat.from_entries(n, _pairs(n, 1))


def product_P(n: int, p: int) -> Mat:
    if not 1 <= p <= n - 1:
        raise ValueError("signature requires 1 <= p <= n-1")
    return _diag([1] * p + [-1] * (n - p))


def tangent_T(n: int) -> Mat:
    if n % 2:
        raise ValueError("tangent structure needs even dimension")
    m = n // 2
    return Mat.from_entries(n, {(m + i, i): 1 for i in range(m)})


def hyperparacomplex_triple(n: int):
    if n % 2:
        raise ValueError("hyperparacomplex structure needs even dimension")
    m = n // 2
    J = Mat.from_entries(n, {**{(m + i, i): 1 for i in range(m)}, **{(i, m + i): -1 for i in range(m)}})
    E = _diag([1] * m + [-1] * m)
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
    return tuple(
        Mat.from_entries(
            n, {(b + row, b + col): sign for b in range(0, n, 4) for col, (row, sign) in enumerate(_LEFT_MULT[u])}
        )
        for u in ("i", "j", "k")
    )


def _diag(entries) -> Mat:
    return Mat.from_entries(len(entries), {(i, i): x for i, x in enumerate(entries)})


def _stabilizer_algebra(n, structures, name, rows=()):
    """The stabilizer of structures in gl(n), cut down by extra rows."""
    return LinearSubalgebra(n, stabilizer(n, structures, rows), structures, name=name, validate=False)


def build_gl(n):
    return LinearSubalgebra(n, Subspace.full(n * n).rows, name=f"gl({n})", validate=False)


def build_sp(m):
    """sp(2m, R) = {A : A.omega0 = 0} in gl(2m)."""
    n = 2 * m
    return _stabilizer_algebra(n, {"omega": standard_omega(n)}, f"sp({n},R)")


def build_so(p, q=0):
    gram = _diag([1] * p + [-1] * q)
    return _stabilizer_algebra(gram.rows, {"g": gram}, f"so({p},{q})" if q else f"so({p})")


def build_so_g(gram: Mat):
    check_identity("g", gram, gram.rows)
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
    pairs = {(a, a + 3): 1 for a in range(0, 4 * k, 4)} | {(a + 1, a + 2): 1 for a in range(0, 4 * k, 4)}
    return Mat.from_entries(4 * k, pairs | {(j, i): -v for (i, j), v in pairs.items()})


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
    if (gram.rows, gram.cols) != (n, n):
        raise ValueError(f"gram must be {n} x {n} for u({p},{q})")
    check_identity("g", gram, n)
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
    ann = kernel_rows(lag.rows, nu)
    # F is omega-self-adjoint, kills L (F b = 0) and maps into L (a F = 0)
    kills_l = [{i * nu + k: x for k, x in b.items()} for b in lag.rows for i in range(nu)]
    into_l = [{k * nu + j: x for k, x in a.items()} for a in ann for j in range(nu)]
    rows = [padded(nu, s) for s in stabilizer(nu, {}, form_rows(omega, -1) + kills_l + into_l)]
    # [[0, u], [omega(u, .), 0]]: u in the last column, omega(u, .) in the last row
    for u in lag.rows:
        coupling = [(nu * (nu + 1) + j, x * omega.data[i][j]) for i, x in u.items() for j in range(nu)]
        rows.append(sparse_sum([(i * (nu + 1) + nu, x) for i, x in u.items()] + coupling))
    return LinearSubalgebra(
        nu + 1,
        rows,
        {"omega_u": omega, "lagrangian": lag},
        name=f"lagsym({m})",
        validate=False,
    )


# name: (builder, ambient dimension n from the same keyword parameters);
# the ambient function's arguments name the parameters and their defaults
_BUILDERS = {
    "gl": (build_gl, lambda n: n),
    "sp": (build_sp, lambda m: 2 * m),
    "so": (build_so, lambda p, q=0: p + q),
    "so_g": (build_so_g, lambda gram: gram.rows),
    "gl_C": (build_gl_C, lambda m: 2 * m),
    "sl_C": (build_sl_C, lambda m: 2 * m),
    "sp_C": (build_sp_C, lambda k: 4 * k),
    "u": (build_u, lambda p, q=0, gram=None: 2 * (p + q)),
    "su": (build_su, lambda m: 2 * m),
    "gl_H": (build_gl_H, lambda k: 4 * k),
    "sp_H": (build_sp_H, lambda k: 4 * k),
    "delta_gl": (build_delta_gl, lambda m: 2 * m),
    "delta_so": (build_delta_so, lambda m: 2 * m),
    "product_gl": (build_product_gl, lambda n, p: n),
    "tangent_gl": (build_tangent_gl, lambda m: 2 * m),
    "lagrangian_symplectic": (build_lagrangian_symplectic, lambda m: 2 * m + 1),
}


def builder_names():
    return sorted(_BUILDERS)


def _spec_matrix(what, value) -> Mat:
    """A square matrix of rationals read from a spec, or a ValueError naming what."""
    try:
        m = mat_from_json(value)
    except (TypeError, ValueError, ZeroDivisionError):
        m = None
    if m is None or not m.is_square():
        raise ValueError(f"{what} must be a square matrix of rationals")
    return m


def _param(name, key, value):
    """A builder parameter: a square matrix for gram, else an integer >= 0."""
    if key == "gram":
        return _spec_matrix(f"{name}: parameter {key}", value)
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name}: parameter {key} must be an integer >= 0, got {value!r}")
    return value


def _builder_call(spec):
    """(builder, its keyword arguments, ambient dimension) of a builder
    spec, every parameter checked and nothing built."""
    name = spec["builder"]
    if not isinstance(name, str) or name not in _BUILDERS:
        raise KeyError(f"unknown builder {name!r}; known: {', '.join(builder_names())}")
    fn, ambient = _BUILDERS[name]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{name}: params must be an object")
    known = ambient.__code__.co_varnames[: ambient.__code__.co_argcount]
    required = known[: len(known) - len(ambient.__defaults__ or ())]
    unknown = [key for key in params if key not in known]
    missing = [key for key in required if key not in params]
    if unknown or missing:
        which = f"unknown parameter {unknown[0]!r}" if unknown else f"missing parameter {missing[0]!r}"
        raise ValueError(f"{name}: {which}; parameters: {', '.join(known)}")
    kwargs = {key: _param(name, key, value) for key, value in params.items()}
    n = ambient(**kwargs)
    if n < 2:
        given = ", ".join(f"{key}={value}" for key, value in kwargs.items())
        raise ValueError(f"{name}: {given} gives ambient dimension {n}; it must be at least 2")
    return fn, kwargs, n


_BUILDER_KEYS = ("builder", "params")
_EXPLICIT_KEYS = ("basis", "name", "validate", *(key for key, kind in STRUCTURE_KINDS.items() if kind != HYPERPLANE))


def _spec_is_builder(spec) -> bool:
    """Whether spec is a builder spec, once its keys are all ones its kind accepts."""
    if not isinstance(spec, dict) or not ("builder" in spec or "basis" in spec):
        raise ValueError("spec must be an object with 'builder' or 'basis'")
    kind, accepted = ("a builder", _BUILDER_KEYS) if "builder" in spec else ("an explicit", _EXPLICIT_KEYS)
    for key in spec:
        if key not in accepted:
            raise ValueError(f"{kind} spec takes no key {key!r}; accepted keys: {', '.join(accepted)}")
    if not isinstance(spec.get("name", ""), str):
        raise ValueError("spec key 'name' must be a string")
    if not isinstance(spec.get("validate", True), bool):
        raise ValueError("spec key 'validate' must be true or false")
    return "builder" in spec


DEFAULT_MAX_N = 12  # the cap on the ambient dimension when TORSIONLAB_MAX_N is unset


def ambient_dim(spec) -> int:
    """The ambient dimension, at least 2, of the algebra a spec describes, read
    from its parameters or its first basis matrix before anything is built."""
    if _spec_is_builder(spec):
        return _builder_call(spec)[2]
    if not isinstance(spec["basis"], list) or not spec["basis"]:
        raise ValueError("spec must contain 'builder' or a non-empty 'basis'")
    n = _spec_matrix("basis[0]", spec["basis"][0]).rows
    if n < 2:
        raise ValueError(f"explicit basis gives ambient dimension {n}; it must be at least 2")
    return n


def build(spec) -> LinearSubalgebra:
    """Catalog dispatcher.

    Accepts {"builder": name, "params": {...}} or an explicit
    {"basis": [[[...]]], "J"/"g"/...: [[...]], "name": ..., "validate": bool},
    and no other key.  Builder parameters are checked before anything is
    built.  Attached structures, a builder's Gram included, always meet
    their defining identities, which the rules rely on; "validate": false
    skips only the checks of the basis.
    """
    if _spec_is_builder(spec):
        fn, kwargs, _ = _builder_call(spec)
        return fn(**kwargs)
    n = ambient_dim(spec)
    mats = [_spec_matrix(f"basis[{i}]", b) for i, b in enumerate(spec["basis"])]
    structures = {}
    for key, kind in STRUCTURE_KINDS.items():
        if key not in spec:
            continue
        value = spec[key]
        if kind != TRIPLE:
            structures[key] = _spec_matrix(key, value)
        elif isinstance(value, list) and len(value) == 3:
            structures[key] = tuple(_spec_matrix(f"{key}[{i}]", x) for i, x in enumerate(value))
        else:
            raise ValueError(f"{key} must be a list of three square matrices")
        check_identity(key, structures[key], n)
    return LinearSubalgebra(
        n,
        mats,
        structures,
        name=spec.get("name", "user"),
        validate=spec.get("validate", True),
    )


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
