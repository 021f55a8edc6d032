"""The generic obstruction engine for almost Abelian Lie algebras.

Given a linear subalgebra h of gl(n), computes the characteristic
subalgebra, the tableau and its first prolongation, the candidate
connection space D, the torsion maps T = (T1, T2) and the obstruction
space F = T1(ker T2).  T is read at the transversal e_n: on D the
torsion at any transversal v is v_n times the torsion at e_n, so F and
every certificate are the same for all v, and each is computed once per
algebra.  Membership f in F is decided by an exact affine solve and
every returned certificate is re-validated by evaluating the torsion
(and curvature) tensors on the g_f bracket.

Index conventions: gamma[i][j][k] is the k-th component of the
covariant derivative of e_j in the direction e_i; tensors are flattened
row-major, so gamma sits at i*n^2 + j*n + k.  The hyperplane is always
the span of e_1 .. e_{n-1}; other hyperplane types enter exclusively by
conjugating h.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebras import LinearSubalgebra, conjugate
from .linalg import Mat, ShapeError, Subspace, dense, fr, image_on_kernel, kernel_rows, solve_affine, sparse_sum, vec


class AlmostAbelian:
    """g_f = R^{n-1} x|_f R: [e_n, u] = f(u), R^{n-1} Abelian."""

    __slots__ = ("f", "n")

    def __init__(self, f: Mat):
        if not f.is_square():
            raise ShapeError("f must be square")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "n", f.rows + 1)

    def __setattr__(self, *a):
        raise AttributeError("AlmostAbelian is immutable")

    def __eq__(self, other):
        return isinstance(other, AlmostAbelian) and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def bracket(self, x, y):
        x, y = vec(x), vec(y)
        n = self.n
        fx = self.f.matvec(x[: n - 1])
        fy = self.f.matvec(y[: n - 1])
        return tuple(x[n - 1] * fy[k] - y[n - 1] * fx[k] for k in range(n - 1)) + (Fraction(0),)

    def bracket_tensor(self):
        """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k, flattened."""
        n = self.n
        c = [Fraction(0)] * (n * n * n)
        for j in range(n - 1):
            col = self.f.col(j)
            for k in range(n - 1):
                c[(n - 1) * n * n + j * n + k] = col[k]
                c[j * n * n + (n - 1) * n + k] = -col[k]
        return tuple(c)


class ConnectionTensor:
    """A full connection on g_f: n^3 rationals gamma[i][j][k]."""

    __slots__ = ("n", "gamma")

    def __init__(self, n, gamma):
        gamma = tuple(fr(x) for x in gamma)
        if len(gamma) != n**3:
            raise ShapeError("gamma must have n^3 entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, *a):
        raise AttributeError("ConnectionTensor is immutable")

    def is_zero(self):
        return all(x == 0 for x in self.gamma)

    def __eq__(self, other):
        return isinstance(other, ConnectionTensor) and self.n == other.n and self.gamma == other.gamma

    def __hash__(self):
        return hash((self.n, self.gamma))


class Certificate:
    """A validated connection certificate; residuals are exactly zero."""

    __slots__ = ("kind", "nabla", "residuals")

    def __init__(self, kind, nabla, residuals):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nabla", nabla)
        object.__setattr__(self, "residuals", residuals)

    def __setattr__(self, *a):
        raise AttributeError("Certificate is immutable")


class Refusal:
    """An honest negative: f is not in the relevant space; residual reported."""

    __slots__ = ("reason", "residual")

    def __init__(self, reason, residual):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "residual", tuple(residual))

    def __setattr__(self, *a):
        raise AttributeError("Refusal is immutable")


@lru_cache(maxsize=None)
def characteristic_subalgebra(h: LinearSubalgebra) -> Subspace:
    """k~_h: restrictions to R^{n-1} of elements of h preserving R^{n-1}."""
    n = h.n
    if n < 2:
        raise ShapeError("need n >= 2")
    m = n - 1
    return image_on_kernel(
        m, m * m, ((f.data[m][:m], f.submatrix(range(m), range(m)).flatten()) for f in h.basis)
    )


@lru_cache(maxsize=None)
def tableau(h: LinearSubalgebra) -> Subspace:
    """K_h = {F restricted to R^{n-1}} inside Hom(R^{n-1}, R^n)."""
    n = h.n
    return Subspace.span(
        n * (n - 1), [f.submatrix(range(n), range(n - 1)).flatten() for f in h.basis]
    )


@lru_cache(maxsize=None)
def first_prolongation(h: LinearSubalgebra) -> Subspace:
    """K^(1) = ((R^{n-1})* x K) meet (S^2(R^{n-1})* x R^n), which is D
    restricted to hyperplane directions and arguments: D's symmetry
    conditions read only those entries, each restricted slice ranges over
    K, and each Y in K^(1) lifts to D (lift each Y_a to h, set X_{e_n} = 0).

    The value space is all of R^n: restricting it to R^{n-1} would kill
    the prolongations of metric and totally real subalgebras, whose
    symmetric parts point along the transversal.
    """
    n, m = h.n, h.n - 1
    # X_a(e_b)_k at a*n^2 + b*n + k moves to a*m*n + b*n + k
    keep = {a * n * n + b * n + k: a * m * n + b * n + k for a in range(m) for b in range(m) for k in range(n)}
    return Subspace.span(m * m * n, [{keep[c]: x for c, x in row.items() if c in keep} for row in connection_space(h).rows])


@lru_cache(maxsize=None)
def connection_space(h: LinearSubalgebra) -> Subspace:
    """D_h: (R^n)* x h, symmetric on hyperplane pairs, inside R^{n^3}.

    X_i(e_j)_k sits at i*n^2 + j*n + k.  With X_i = sum_t c_it B_t over
    the canonical basis B_t of h, the symmetry conditions
    X_a(e_b) = X_b(e_a), a < b < n - 1, are sparse rows in the c_it,
    emitted from the nonzero entries of each B_t.  Their kernel is
    embedded into R^{n^3} sparsely and spanned once.
    """
    n = h.n
    mats = h.span.rows
    dim = len(mats)
    # (j, k, B_t[k][j]) for the nonzero entries of B_t, flattened at k*n + j
    entries = [[(idx % n, idx // n, x) for idx, x in b.items()] for b in mats]
    rows = {}  # (a, b, k) -> the condition X_a(e_b)_k - X_b(e_a)_k = 0
    for t, nonzero in enumerate(entries):
        for j, k, x in nonzero:
            if j < n - 1:
                for a in range(j):
                    rows.setdefault((a, j, k), {})[a * dim + t] = x
                for b in range(j + 1, n - 1):
                    rows.setdefault((j, b, k), {})[b * dim + t] = -x
    vecs = []
    for coeffs in kernel_rows(rows.values(), n * dim):
        terms = []
        for col, c in coeffs.items():
            i, t = divmod(col, dim)
            terms += [(i * n * n + j * n + k, c * x) for j, k, x in entries[t]]
        vecs.append(sparse_sum(terms))
    return Subspace.span(n**3, vecs)


def torsion_maps(h: LinearSubalgebra, v=None):
    """(T1, T2) as matrices acting on D_h coordinates (D given by its
    canonical basis): (n-1)^2 x dim D and (n-1) x dim D.

    Every X in D is symmetric on hyperplane pairs, so the torsion at
    v = v_n e_n + v' is v_n times the torsion at e_n.  Split along
    R^{n-1} + span(v) it gives T2 unchanged and T1 = v_n T1 - v' x T2,
    where T1, T2 are the maps at e_n (the default).
    """
    t1, t2, _ = _torsion_maps(h)
    if v is None:
        return t1, t2
    n, m = h.n, h.n - 1
    v = vec(v)
    if len(v) != n:
        raise ShapeError("transversal has wrong length")
    if v[m] == 0:
        raise ValueError("transversal v must lie outside R^{n-1}")
    rows = [[v[m] * x - v[k] * y for x, y in zip(t1.data[k * m + a], t2.data[a])] for k in range(m) for a in range(m)]
    return Mat(rows, m * m, t1.cols), t2


def _from_columns(n_rows, columns):
    """The n_rows x len(columns) matrix with the given sparse columns."""
    grid = [[Fraction(0)] * len(columns) for _ in range(n_rows)]
    for c, col in enumerate(columns):
        for r, x in col.items():
            grid[r][c] = x
    return Mat(grid, n_rows, len(columns))


@lru_cache(maxsize=None)
def _torsion_maps(h: LinearSubalgebra):
    """T(X)(e_a)_k = X_{e_n}(e_a)_k - X_{e_a}(e_n)_k read from the nonzero
    entries of each D basis vector X, at row k*m + a of [T1; T2] (T2 is
    the e_n component).  Returns T1 and T2 as matrices and, per X, its
    sparse columns (T2 X, T1 X)."""
    n, m = h.n, h.n - 1
    reads = {}  # entry of X -> (row of [T1; T2], sign)
    for a in range(m):
        for k in range(n):
            reads[m * n * n + a * n + k] = (k * m + a, 1)
            reads[a * n * n + m * n + k] = (k * m + a, -1)
    cols = [sparse_sum((reads[c][0], reads[c][1] * x) for c, x in row.items() if c in reads) for row in connection_space(h).rows]
    t1 = [{r: x for r, x in col.items() if r < m * m} for col in cols]
    t2 = [{r - m * m: x for r, x in col.items() if r >= m * m} for col in cols]
    return _from_columns(m * m, t1), _from_columns(m, t2), list(zip(t2, t1))


@lru_cache(maxsize=None)
def obstruction_space(h: LinearSubalgebra) -> Subspace:
    """F_h = T1(ker T2); the same for every transversal (see torsion_maps)."""
    return image_on_kernel(h.n - 1, (h.n - 1) ** 2, _torsion_maps(h)[2])


def torsion_tensor(nabla: ConnectionTensor, aa: AlmostAbelian):
    """T(e_i, e_j) = nabla_i e_j - nabla_j e_i - [e_i, e_j], flattened n^3."""
    n = aa.n
    if nabla.n != n:
        raise ShapeError("connection/algebra dimension mismatch")
    c = aa.bracket_tensor()
    g = nabla.gamma
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out.append(g[i * n * n + j * n + k] - g[j * n * n + i * n + k] - c[i * n * n + j * n + k])
    return tuple(out)


def curvature_tensor(nabla: ConnectionTensor, aa: AlmostAbelian):
    """R(e_i, e_j) e_k = [nabla_i, nabla_j] e_k - nabla_{[e_i,e_j]} e_k, flattened n^4."""
    n = aa.n
    if nabla.n != n:
        raise ShapeError("connection/algebra dimension mismatch")
    c = aa.bracket_tensor()
    g = nabla.gamma
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = Fraction(0)
                    for m in range(n):
                        s += g[j * n * n + k * n + m] * g[i * n * n + m * n + l]
                        s -= g[i * n * n + k * n + m] * g[j * n * n + m * n + l]
                        s -= c[i * n * n + j * n + m] * g[m * n * n + k * n + l]
                    out.append(s)
    return tuple(out)


def nijenhuis(a: Mat, aa: AlmostAbelian):
    """N_A(e_i, e_j), flattened n^3.

    Standard convention: [Ax, Ay] - A[Ax, y] - A[x, Ay] + A^2 [x, y],
    for which N_J = 0 is integrability of a complex structure J.
    """
    n = aa.n
    if a.rows != n or a.cols != n:
        raise ShapeError("A must be n x n")
    cols = [a.col(j) for j in range(n)]
    a2 = a * a
    out = []
    for i in range(n):
        ai = cols[i]
        for j in range(n):
            aj = cols[j]
            t1 = aa.bracket(ai, aj)
            t2 = a.matvec(aa.bracket(ai, [Fraction(1 if r == j else 0) for r in range(n)]))
            t3 = a.matvec(aa.bracket([Fraction(1 if r == i else 0) for r in range(n)], aj))
            t4 = a2.matvec(aa.bracket([Fraction(1 if r == i else 0) for r in range(n)], [Fraction(1 if r == j else 0) for r in range(n)]))
            for k in range(n):
                out.append(t1[k] - t2[k] - t3[k] + t4[k])
    return tuple(out)


def max_abs(entries):
    m = Fraction(0)
    for x in entries:
        if x < 0:
            x = -x
        if x > m:
            m = x
    return m


def check_torsion_free(h: LinearSubalgebra, aa: AlmostAbelian, hyperplane_map: Mat | None = None):
    """Certificate of a torsion-free connection with T(nabla) = f, or a refusal.

    A non-special hyperplane type is handled by conjugating h by the
    supplied map; the engine itself always works with R^{n-1}.
    """
    if aa.n != h.n:
        raise ShapeError("algebra/subalgebra dimension mismatch")
    if hyperplane_map is not None:
        h = conjugate(h, hyperplane_map)
    n = h.n
    t1, t2, _ = _torsion_maps(h)
    f_flat = aa.f.flatten()
    sol = solve_affine(t2.data + t1.data, [Fraction(0)] * (n - 1) + list(f_flat))
    if sol is None:
        residual = obstruction_space(h).reduce(f_flat)
        return Refusal("f is not in the obstruction space of h", residual)
    rows = connection_space(h).rows
    gamma = sparse_sum((idx, c * y) for c, row in zip(sol, rows) if c for idx, y in row.items())
    nabla = ConnectionTensor(n, dense(gamma, n**3))
    tors = torsion_tensor(nabla, aa)
    if any(x != 0 for x in tors):
        raise AssertionError("engine invariant violated: certificate has torsion")
    return Certificate("torsion_free", nabla, {"torsion_max_abs": max_abs(tors)})


def flat_certificate(h: LinearSubalgebra, aa: AlmostAbelian):
    """Left-invariantly flat certificate from f in k~_h: nabla_u = 0, nabla_{e_n} = F."""
    if aa.n != h.n:
        raise ShapeError("algebra/subalgebra dimension mismatch")
    n = h.n
    f_flat = aa.f.flatten()
    rows = []
    rhs = []
    for j in range(n - 1):
        rows.append([h.basis[b].data[n - 1][j] for b in range(h.dim)])
        rhs.append(Fraction(0))
    for i in range(n - 1):
        for j in range(n - 1):
            rows.append([h.basis[b].data[i][j] for b in range(h.dim)])
            rhs.append(aa.f.data[i][j])
    sol = solve_affine(rows, rhs)
    if sol is None:
        residual = characteristic_subalgebra(h).reduce(f_flat)
        return Refusal("f is not in the characteristic subalgebra of h", residual)
    big = h.element(sol)
    gamma = [Fraction(0)] * n**3
    for j in range(n):
        for k in range(n):
            gamma[(n - 1) * n * n + j * n + k] = big.data[k][j]
    nabla = ConnectionTensor(n, gamma)
    tors = torsion_tensor(nabla, aa)
    curv = curvature_tensor(nabla, aa)
    if any(x != 0 for x in tors) or any(x != 0 for x in curv):
        raise AssertionError("engine invariant violated: flat construction has residue")
    return Certificate("flat", nabla, {"torsion_max_abs": max_abs(tors), "curvature_max_abs": max_abs(curv)})
