"""The generic obstruction engine for almost Abelian Lie algebras.

Given a linear subalgebra h of gl(n), computes the characteristic
subalgebra, the tableau and its first prolongation, the candidate
connection space D, the torsion maps T = (T1, T2) and the obstruction
space F = T1(ker T2).  T is read at the transversal e_n: on D the
torsion at any transversal v is v_n times the torsion at e_n, so F and
every certificate are the same for all v.  Each space is a ``memo``
function of h: computed on first use and kept on the algebra object,
so it is freed with h, and a conjugate or a copy computes its own.
Membership f in F (or k~) is one exact solve over the pairs the space
is built from, and every returned certificate is re-validated by
evaluating the torsion (and curvature) on the g_f bracket table.

Index conventions: gamma[i][j][k] is the k-th component of the
covariant derivative of e_j in the direction e_i; tensors are flattened
row-major, so gamma sits at i*n^2 + j*n + k.  The hyperplane is always
the span of e_1 .. e_{n-1}; other hyperplane types enter exclusively by
conjugating h.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import LinearSubalgebra, conjugate, memo
from .linalg import Mat, ShapeError, Subspace, Value, dense, fr, image_on_kernel, kernel_rows, solve_on_kernel, sparse_sum, vec


class AlmostAbelian(Value):
    """g_f = R^{n-1} x|_f R: [e_n, u] = f(u), R^{n-1} Abelian."""

    __slots__ = ("f", "n")

    def __init__(self, f: Mat):
        if not f.is_square():
            raise ShapeError("f must be square")
        self._init(f=f, n=f.rows + 1)

    def _key(self):
        return self.f

    def brackets(self):
        """The nonzero brackets of basis vectors, {(i, j): {k: c}} with
        [e_i, e_j] = sum_k c e_k: [e_n, e_j] = f e_j = -[e_j, e_n] for each
        j < n - 1 with f e_j != 0."""
        m = self.n - 1
        table = {}
        for j in range(m):
            col = {k: x for k in range(m) if (x := self.f.data[k][j])}
            if col:
                table[m, j] = col
                table[j, m] = {k: -x for k, x in col.items()}
        return table


class ConnectionTensor(Value):
    """A full connection on g_f: n^3 rationals gamma[i][j][k]."""

    __slots__ = ("n", "gamma")

    def __init__(self, n, gamma):
        gamma = tuple(fr(x) for x in gamma)
        if len(gamma) != n**3:
            raise ShapeError("gamma must have n^3 entries")
        self._init(n=n, gamma=gamma)

    def is_zero(self):
        return all(x == 0 for x in self.gamma)

    def _key(self):
        return self.n, self.gamma


class Certificate(Value):
    """A validated connection certificate; residuals are exactly zero."""

    __slots__ = ("kind", "nabla", "residuals")

    def __init__(self, kind, nabla, residuals):
        self._init(kind=kind, nabla=nabla, residuals=residuals)


class Refusal(Value):
    """An honest negative: f is not in the relevant space; residual reported."""

    __slots__ = ("reason", "residual")

    def __init__(self, reason, residual):
        self._init(reason=reason, residual=tuple(residual))


def _k_tilde_pairs(n, rows):
    """(last row, top-left block) on R^{n-1} of each element of h, given as
    sparse flattened rows: k~_h is the second on the kernel of the first."""
    m = n - 1
    return [
        ({c - m * n: x for c, x in row.items() if m * n <= c < n * n - 1},
         {c // n * m + c % n: x for c, x in row.items() if c < m * n and c % n < m})
        for row in rows
    ]


@memo
def characteristic_subalgebra(h: LinearSubalgebra) -> Subspace:
    """k~_h: restrictions to R^{n-1} of elements of h preserving R^{n-1}."""
    n = h.n
    if n < 2:
        raise ShapeError("need n >= 2")
    m = n - 1
    return image_on_kernel(m, m * m, _k_tilde_pairs(n, h.rows))


@memo
def tableau(h: LinearSubalgebra) -> Subspace:
    """K_h = {F restricted to R^{n-1}} inside Hom(R^{n-1}, R^n)."""
    n, m = h.n, h.n - 1
    # F[k][j], j < n - 1, moves from k*n + j to k*m + j
    return Subspace.span(n * m, [{c // n * m + c % n: x for c, x in row.items() if c % n < m} for row in h.rows])


@memo
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


@memo
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
    where T1, T2 are the maps at e_n (the default), built on each call
    from the sparse columns _torsion_maps keeps on h.
    """
    n, m = h.n, h.n - 1
    pairs = _torsion_maps(h)
    t1 = Mat([[col.get(r, 0) for _, col in pairs] for r in range(m * m)], m * m, len(pairs))
    t2 = Mat([[col.get(r, 0) for col, _ in pairs] for r in range(m)], m, len(pairs))
    if v is None:
        return t1, t2
    v = vec(v)
    if len(v) != n:
        raise ShapeError("transversal has wrong length")
    if v[m] == 0:
        raise ValueError("transversal v must lie outside R^{n-1}")
    rows = [[v[m] * x - v[k] * y for x, y in zip(t1.data[k * m + a], t2.data[a])] for k in range(m) for a in range(m)]
    return Mat(rows, m * m, t1.cols), t2


@memo
def _torsion_maps(h: LinearSubalgebra):
    """T(X)(e_a)_k = X_{e_n}(e_a)_k - X_{e_a}(e_n)_k read from the nonzero
    entries of each D basis vector X, at row k*m + a of [T1; T2] (T2 is
    the e_n component).  Returns, per X, its sparse columns (T2 X, T1 X):
    F_h is the image of T1 on the kernel of T2."""
    n, m = h.n, h.n - 1
    reads = {}  # entry of X -> (row of [T1; T2], sign)
    for a in range(m):
        for k in range(n):
            reads[m * n * n + a * n + k] = (k * m + a, 1)
            reads[a * n * n + m * n + k] = (k * m + a, -1)
    cols = [sparse_sum((reads[c][0], reads[c][1] * x) for c, x in row.items() if c in reads) for row in connection_space(h).rows]
    return tuple(
        ({r - m * m: x for r, x in col.items() if r >= m * m}, {r: x for r, x in col.items() if r < m * m})
        for col in cols
    )


@memo
def obstruction_space(h: LinearSubalgebra) -> Subspace:
    """F_h = T1(ker T2); the same for every transversal (see torsion_maps)."""
    return image_on_kernel(h.n - 1, (h.n - 1) ** 2, _torsion_maps(h))


def torsion_tensor(nabla: ConnectionTensor, aa: AlmostAbelian):
    """T(e_i, e_j) = nabla_i e_j - nabla_j e_i - [e_i, e_j], flattened n^3."""
    n = aa.n
    if nabla.n != n:
        raise ShapeError("connection/algebra dimension mismatch")
    g = nabla.gamma
    out = [g[(i * n + j) * n + k] - g[(j * n + i) * n + k] for i in range(n) for j in range(n) for k in range(n)]
    for (i, j), col in aa.brackets().items():
        for k, x in col.items():
            out[(i * n + j) * n + k] -= x
    return tuple(out)


def _slices(nabla: ConnectionTensor):
    """A_i = nabla_{e_i} as sparse columns {k: {l: x}}, A_i e_k = sum_l x e_l."""
    n = nabla.n
    a = [{} for _ in range(n)]
    for idx, x in enumerate(nabla.gamma):
        if x:
            a[idx // (n * n)].setdefault(idx // n % n, {})[idx % n] = x
    return a


def _apply(a, v):
    """The terms (l, x) of A v, for A in sparse columns and a sparse vector v."""
    return [(l, x * y) for k, x in v.items() for l, y in a.get(k, {}).items()]


def curvature_tensor(nabla: ConnectionTensor, aa: AlmostAbelian):
    """R(e_i, e_j) e_k = [nabla_i, nabla_j] e_k - nabla_{[e_i,e_j]} e_k, flattened n^4,
    on the sparse slices A_i = nabla_{e_i} for i < j; R(e_j, e_i) = -R(e_i, e_j)."""
    n = aa.n
    if nabla.n != n:
        raise ShapeError("connection/algebra dimension mismatch")
    a = _slices(nabla)
    table = aa.brackets()
    out = [Fraction(0)] * n**4
    for i in range(n):
        for j in range(i + 1, n):
            bracket = table.get((i, j), {})
            for k in range(n):
                terms = _apply(a[i], a[j].get(k, {}))
                terms += [(l, -x) for l, x in _apply(a[j], a[i].get(k, {}))]
                terms += [(l, -c * y) for t, c in bracket.items() for l, y in a[t].get(k, {}).items()]
                for l, x in sparse_sum(terms).items():
                    out[((i * n + j) * n + k) * n + l] = x
                    out[((j * n + i) * n + k) * n + l] = -x
    return tuple(out)


def nijenhuis(a: Mat, aa: AlmostAbelian):
    """N_A(e_i, e_j), flattened n^3.

    Standard convention: [Ax, Ay] - A[Ax, y] - A[x, Ay] + A^2 [x, y],
    for which N_J = 0 is integrability of a complex structure J.
    """
    n = aa.n
    if a.rows != n or a.cols != n:
        raise ShapeError("A must be n x n")
    table = aa.brackets()
    amap = {j: {k: x for k in range(n) if (x := a.data[k][j])} for j in range(n)}

    def bracket(x, y):  # the terms of [x, y] for sparse vectors x, y
        return [(k, x[p] * y[q] * c) for (p, q), col in table.items() if p in x and q in y for k, c in col.items()]

    out = [Fraction(0)] * n**3
    for i in range(n):
        for j in range(n):
            ei, ej = {i: 1}, {j: 1}
            # N = [Ax, Ay] - A([Ax, y] + [x, Ay] - A[x, y]) at x = e_i, y = e_j
            inner = bracket(amap[i], ej) + bracket(ei, amap[j]) + [(k, -x) for k, x in _apply(amap, table.get((i, j), {}))]
            terms = bracket(amap[i], amap[j]) + [(k, -x) for k, x in _apply(amap, sparse_sum(inner))]
            for k, x in sparse_sum(terms).items():
                out[(i * n + j) * n + k] = x
    return tuple(out)


def _solve_or_refuse(h, aa, pairs, rows, space, name):
    """The first echelon combination of rows (free variables zero) whose
    generator pairs give f, as a sparse row, by one solve over the pairs
    space(h) is built from; or the refusal with f's residual against it."""
    m = aa.n - 1
    f_flat = aa.f.flatten()
    sol = solve_on_kernel(m, m * m, pairs, f_flat)
    if sol is None:
        return Refusal(f"f is not in the {name} of h", space(h).reduce(f_flat))
    return sparse_sum((idx, c * y) for c, row in zip(sol, rows) if c for idx, y in row.items())


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
    gamma = _solve_or_refuse(h, aa, _torsion_maps(h), connection_space(h).rows, obstruction_space, "obstruction space")
    if isinstance(gamma, Refusal):
        return gamma
    nabla = ConnectionTensor(n, dense(gamma, n**3))
    if any(torsion_tensor(nabla, aa)):
        raise AssertionError("engine invariant violated: certificate has torsion")
    return Certificate("torsion_free", nabla, {"torsion_max_abs": Fraction(0)})


def flat_certificate(h: LinearSubalgebra, aa: AlmostAbelian):
    """Left-invariantly flat certificate from f in k~_h: nabla_u = 0, nabla_{e_n} = F."""
    if aa.n != h.n:
        raise ShapeError("algebra/subalgebra dimension mismatch")
    n = h.n
    big = _solve_or_refuse(h, aa, _k_tilde_pairs(n, h.rows), h.rows, characteristic_subalgebra, "characteristic subalgebra")
    if isinstance(big, Refusal):
        return big
    # F[k][j], at k*n + j of F flattened, is nabla_{e_n}(e_j)_k
    gamma = {(n - 1) * n * n + idx % n * n + idx // n: x for idx, x in big.items()}
    nabla = ConnectionTensor(n, dense(gamma, n**3))
    if any(torsion_tensor(nabla, aa)) or any(curvature_tensor(nabla, aa)):
        raise AssertionError("engine invariant violated: flat construction has residue")
    return Certificate("flat", nabla, {"torsion_max_abs": Fraction(0), "curvature_max_abs": Fraction(0)})
