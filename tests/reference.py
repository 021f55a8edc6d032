"""Dense references the sparse routines of torsionlab must agree with exactly.

Gauss-Jordan elimination over Fraction lists, and the span, solve,
kernel, Zassenhaus, inverse and reduce routes built on it; block
matrices, the matrix commutator and the closure test on dense Mat
products; and the torsion, curvature and Nijenhuis tensors of a
connection on g_f as loops over every index tuple of the dense bracket
tensor.
"""

from fractions import Fraction

from torsionlab.linalg import Mat, ShapeError



def dense_rref_rows(rows):
    """In-place reduced row echelon form of dense rows; returns (rows, pivot_cols, rank)."""
    if not rows:
        return rows, [], 0
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots, len(pivots)


def dense_span(d, vectors):
    red, _, rank = dense_rref_rows([list(v) for v in vectors])
    return tuple(tuple(r) for r in red[:rank])


def dense_solve(rows, rhs):
    """First echelon solution of rows * x = rhs, free variables zero, or None."""
    n_cols = len(rows[0])
    red, pivots, _ = dense_rref_rows([list(r) + [b] for r, b in zip(rows, rhs)])
    if n_cols in pivots:
        return None
    sol = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        sol[c] = red[r][n_cols]
    return tuple(sol)


def dense_kernel(rows, n):
    red, pivots, _ = dense_rref_rows([list(r) for r in rows])
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fcol]
        basis.append(v)
    return dense_span(n, basis)


def dense_image_on_kernel(cond_dim, pairs):
    red, pivots, _ = dense_rref_rows([list(c) + list(v) for c, v in pairs])
    return tuple(tuple(row[cond_dim:]) for row, c in zip(red, pivots) if c >= cond_dim)


def dense_inverse(m):
    n = m.rows
    aug = [list(m.data[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    red, piv, _ = dense_rref_rows(aug)
    if sum(1 for p in piv if p < n) < n:
        return None
    return Mat([row[n:] for row in red], n, n)


def dense_reduce(basis, v):
    v = list(v)
    for row in basis:
        piv = next(i for i, x in enumerate(row) if x)
        if v[piv] != 0:
            f = v[piv]
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def dense_commutator(a, b):
    """Matrix commutator ab - ba of two square Mats of equal size."""
    if not (a.is_square() and b.is_square() and a.rows == b.rows):
        raise ShapeError("bracket needs square matrices of equal size")
    return a * b - b * a


def block(grid):
    """The block matrix of a grid of Mats, None for a zero block."""
    heights = [next(b.rows for b in row if b is not None) for row in grid]
    widths = [next(row[j].cols for row in grid if row[j] is not None) for j in range(len(grid[0]))]
    return Mat(
        [
            [x for blk, w in zip(row, widths) for x in (blk.data[r] if blk is not None else [0] * w)]
            for row, h in zip(grid, heights)
            for r in range(h)
        ]
    )


def dense_is_subalgebra(basis):
    """Whether every pairwise commutator of the Mats in basis stays in their span."""
    basis = list(basis)
    span = dense_span(None, [m.flatten() for m in basis])
    return all(
        not any(dense_reduce(span, dense_commutator(a, b).flatten())) for i, a in enumerate(basis) for b in basis[i + 1 :]
    )


def bracket_tensor(f):
    """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k on g_f, flattened."""
    n = f.rows + 1
    c = [Fraction(0)] * (n * n * n)
    for j in range(n - 1):
        col = f.col(j)
        for k in range(n - 1):
            c[(n - 1) * n * n + j * n + k] = col[k]
            c[j * n * n + (n - 1) * n + k] = -col[k]
    return tuple(c)


def torsion_tensor(gamma, f):
    """T(e_i, e_j) = nabla_i e_j - nabla_j e_i - [e_i, e_j], flattened n^3."""
    n = f.rows + 1
    c = bracket_tensor(f)
    g = gamma
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out.append(g[i * n * n + j * n + k] - g[j * n * n + i * n + k] - c[i * n * n + j * n + k])
    return tuple(out)


def curvature_tensor(gamma, f):
    """R(e_i, e_j) e_k = [nabla_i, nabla_j] e_k - nabla_{[e_i,e_j]} e_k, flattened n^4."""
    n = f.rows + 1
    c = bracket_tensor(f)
    g = gamma
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


def bracket(f, x, y):
    """[x, y] on g_f for dense vectors x, y."""
    n = f.rows + 1
    fx = f.matvec(x[: n - 1])
    fy = f.matvec(y[: n - 1])
    return tuple(x[n - 1] * fy[k] - y[n - 1] * fx[k] for k in range(n - 1)) + (Fraction(0),)


def nijenhuis(a, f):
    """N_A(e_i, e_j) = [Ae_i, Ae_j] - A[Ae_i, e_j] - A[e_i, Ae_j] + A^2 [e_i, e_j], flattened n^3."""
    n = f.rows + 1
    cols = [a.col(j) for j in range(n)]
    a2 = a * a
    e = [tuple(Fraction(1 if r == i else 0) for r in range(n)) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            t1 = bracket(f, cols[i], cols[j])
            t2 = a.matvec(bracket(f, cols[i], e[j]))
            t3 = a.matvec(bracket(f, e[i], cols[j]))
            t4 = a2.matvec(bracket(f, e[i], e[j]))
            for k in range(n):
                out.append(t1[k] - t2[k] - t3[k] + t4[k])
    return tuple(out)


def zp_expr(p, y, z):
    """An element of Q[y][z] (a list of Polys in y, one per power of z) as
    an expression in the symbols y and z, for the sympy cross-checks."""
    return sum(c * y**i * z**j for j, q in enumerate(p) for i, c in enumerate(q.coeffs))
