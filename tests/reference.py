"""Dense references the sparse routines of torsionlab must agree with exactly.

Gauss-Jordan elimination over Fraction lists, and the span, solve,
kernel, Zassenhaus, inverse and reduce routes built on it; block
matrices, the matrix commutator and the closure test on dense Mat
products; and the torsion, curvature and Nijenhuis tensors of a
connection on g_f as loops over every index tuple of the dense bracket
tensor.  The Fraction routes of the spectral pipeline: Faddeev-LeVerrier
on dense Mat products, rational roots from the divisors of the end
coefficients, and the quadratic-factor search through a Sylvester
resultant in Q[s][t].
"""

import math
from fractions import Fraction

from torsionlab.linalg import Mat, ShapeError
from torsionlab.polynomials import Poly, poly_gcd, zp_add, zp_eval_y, zp_resultant, zp_scale, zp_shift



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


def fraction_char_poly(m):
    """det(xI - m) by Faddeev-LeVerrier on Fraction matrices."""
    n = m.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = Mat.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        coeffs[n - k] = -mk.trace() / k
        mk = mk + Mat.identity(n).scale(coeffs[n - k])
    return Poly(coeffs)


def _divisors(n):
    """The divisors of n >= 0 by trial division up to sqrt(n); [1] for 0."""
    out = {1}
    d = 1
    while d * d <= n:
        if n % d == 0:
            out |= {d, n // d}
        d += 1
    return sorted(out)


def divisor_rational_split(p):
    """rational_split by trying every a/b with a | p(0) and b | lc(p), after
    the zero roots; for small end coefficients only."""
    if p.degree <= 0:
        return [], p
    zeros = next(i for i, c in enumerate(p.coeffs) if c != 0)
    roots = [(Fraction(0), zeros)] if zeros else []
    work = Poly(p.coeffs[zeros:])
    den = math.lcm(*(c.denominator for c in work.coeffs))
    ints = [int(c * den) for c in work.coeffs]
    g = math.gcd(*ints)
    a0, an = abs(ints[0]) // g, abs(ints[-1]) // g
    for cand in sorted({Fraction(sign * a, b) for a in _divisors(a0) for b in _divisors(an) for sign in (1, -1)}):
        mult = 0
        while work(cand) == 0:
            work = work.exact_div(Poly([-cand, 1]))
            mult += 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots), work


def resultant_quadratic_factors(q):
    """quadratic_rational_factors by elimination: q mod (x^2 - s x + t) is
    A(s, t) x + B(s, t), and each rational s with Res_t(A, B)(s) = 0 is
    tried with the rational t of gcd(A(s), B(s)).  It misses a factor
    when the resultant vanishes identically."""
    found, work = [], q.monic()
    while work.degree >= 4:
        fac = _one_quadratic_factor(work)
        if fac is None:
            break
        found.append(fac)
        work = work.exact_div(fac)
    if work.degree == 2:
        found.append(work.monic())
        work = Poly([1])
    return found, work


def _one_quadratic_factor(q):
    # x^k mod (x^2 - s x + t) = a_k x + b_k in Q[s][t]:
    # a_{k+1} = s a_k + b_k and b_{k+1} = -t a_k
    a, b = [], [Poly([1])]
    za, zb = [], []
    for c in q.coeffs:
        if c != 0:
            za, zb = zp_add(za, zp_scale(a, c)), zp_add(zb, zp_scale(b, c))
        a, b = zp_add([Poly((0,) + ak.coeffs) for ak in a], b), zp_shift([-ak for ak in a], 1)
    if not za or not zb:
        return None
    elim = zp_resultant(za, zb)
    if elim.is_zero():
        return None
    for s0, _ in divisor_rational_split(elim)[0]:
        g = poly_gcd(zp_eval_y(za, s0), zp_eval_y(zb, s0))
        if g.degree <= 0:
            continue
        for t0, _ in divisor_rational_split(g)[0]:
            fac = Poly([t0, -s0, 1])
            if (q % fac).is_zero():
                return fac
    return None
