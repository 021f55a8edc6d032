"""Exact linear algebra over the rationals.

Everything in the package funnels through two value types: ``Mat``, an
immutable dense matrix of ``fractions.Fraction`` entries, and
``Subspace``, a linear subspace of Q^d stored by its reduced
row-echelon basis, so subspace equality is entry-wise tuple equality.

Flattening convention, fixed package-wide: a linear map R^a -> R^b is
stored as a b x a matrix and flattened row-major, entry (r, c) sits at
coordinate r*a + c.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def fr(x) -> Fraction:
    """Coerce an int, string like '2/3', or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def vec(entries):
    return tuple(fr(x) for x in entries)


def unit(n, i) -> tuple:
    """The standard basis vector e_i of Q^n.  The unit matrix E_ij of
    gl(m), flattened, is unit(m * m, i * m + j)."""
    out = [Fraction(0)] * n
    out[i] = Fraction(1)
    return tuple(out)


def entry_span(m, allowed=lambda i, j: False, tied=(), extra=()):
    """The span in gl(m), flattened, of E_ij wherever allowed(i, j), of
    E_ij + E_kl for each tied pair ((i, j), (k, l)), and of extra."""
    size = m * m
    vecs = list(extra) + [unit(size, i * m + j) for i in range(m) for j in range(m) if allowed(i, j)]
    for (i, j), (k, l) in tied:
        vecs.append(tuple(a + b for a, b in zip(unit(size, i * m + j), unit(size, k * m + l))))
    return Subspace.span(size, vecs)


class ShapeError(ValueError):
    """Raised on dimension mismatches between exact-core operands."""


class Mat:
    """Immutable rows x cols matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(fr(x) for x in row) for row in data)
        if rows is None:
            rows = len(data)
        if cols is None:
            if not data:
                raise ShapeError("empty matrix needs explicit cols")
            cols = len(data[0])
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        if len(data) != rows:
            raise ShapeError("row count mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @classmethod
    def zeros(cls, rows, cols):
        z = Fraction(0)
        return cls([[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @classmethod
    def from_entries(cls, n, entries):
        """The n x n matrix with the {(i, j): value} entries, zero elsewhere."""
        out = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), value in entries.items():
            out[i][j] = value
        return cls(out)

    @classmethod
    def unflatten(cls, rows, cols, flat):
        flat = list(flat)
        if len(flat) != rows * cols:
            raise ShapeError("flat length mismatch")
        return cls([flat[r * cols : (r + 1) * cols] for r in range(rows)], rows, cols)

    @classmethod
    def from_cols(cls, cols_list):
        m = len(cols_list[0])
        return cls([[col[r] for col in cols_list] for r in range(m)])

    @classmethod
    def block(cls, grid):
        """Assemble a block matrix from a grid of Mats (None = zero block)."""
        row_h = [next(b.rows for b in row if b is not None) for row in grid]
        col_w = [next(row[j].rows * 0 + row[j].cols for row in grid if row[j] is not None) for j in range(len(grid[0]))]
        out = []
        for bi, row in enumerate(grid):
            for r in range(row_h[bi]):
                line = []
                for bj, blk in enumerate(row):
                    if blk is None:
                        line.extend([Fraction(0)] * col_w[bj])
                    else:
                        line.extend(blk.data[r])
                out.append(line)
        return cls(out)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other):
        self._same_shape(other)
        return Mat(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Mat(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, c):
        c = fr(c)
        return Mat([[c * x for x in row] for row in self.data], self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            ot = other.transpose().data
            return Mat(
                [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data],
                self.rows,
                other.cols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ShapeError("matvec length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def transpose(self):
        return Mat(
            [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)],
            self.cols,
            self.rows,
        )

    def trace(self):
        if self.rows != self.cols:
            raise ShapeError("trace of non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), Fraction(0))

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_square(self):
        return self.rows == self.cols

    def flatten(self):
        return tuple(x for row in self.data for x in row)

    def col(self, j):
        return tuple(self.data[r][j] for r in range(self.rows))

    def submatrix(self, row_idx, col_idx):
        return Mat([[self.data[r][c] for c in col_idx] for r in row_idx], len(row_idx), len(col_idx))

    def inverse(self):
        if self.rows != self.cols:
            raise ShapeError("inverse of non-square matrix")
        n = self.rows
        aug = [list(self.data[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        red, piv, rank = _rref_rows(aug)
        if sum(1 for p in piv if p < n) < n:
            raise ShapeError("matrix is singular")
        return Mat([row[n:] for row in red], n, n)

    def det(self):
        if self.rows != self.cols:
            raise ShapeError("det of non-square matrix")
        m = [list(row) for row in self.data]
        n = self.rows
        det = Fraction(1)
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c] != 0), None)
            if p is None:
                return Fraction(0)
            if p != c:
                m[c], m[p] = m[p], m[c]
                det = -det
            det *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    for k in range(c, n):
                        m[r][k] -= f * m[c][k]
        return det

    def rank(self):
        return _rref_rows([list(r) for r in self.data])[2]

    def _same_shape(self, other):
        if not isinstance(other, Mat) or self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")


def _rref_rows(rows):
    """In-place reduced row echelon form; returns (rows, pivot_cols, rank)."""
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


def rref(m: Mat):
    """Unique reduced row-echelon form of m, with pivot columns and rank."""
    rows, pivots, rank = _rref_rows([list(r) for r in m.data])
    return Mat(rows, m.rows, m.cols), pivots, rank


def solve_affine(rows, rhs):
    """First echelon solution of the linear system rows * x = rhs.

    Free variables are set to zero, which makes the returned solution
    deterministic.  Returns None when the system is inconsistent.
    """
    if not rows:
        return ()
    n_cols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots, rank = _rref_rows(aug)
    if n_cols in pivots:
        return None
    sol = [Fraction(0)] * n_cols
    for r, c in enumerate(pivots):
        sol[c] = red[r][n_cols]
    return tuple(sol)


class Subspace:
    """A subspace of Q^d in canonical (reduced row-echelon) form."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, canonical_basis):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", canonical_basis)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, ambient_dim, vectors):
        rows = []
        for v in vectors:
            v = vec(v)
            if len(v) != ambient_dim:
                raise ShapeError("vector length != ambient_dim")
            rows.append(list(v))
        red, pivots, rank = _rref_rows(rows)
        return cls(ambient_dim, tuple(tuple(r) for r in red[:rank]))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls.span(ambient_dim, Mat.identity(ambient_dim).data)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def reduce(self, v):
        """Remainder of v after elimination against the canonical basis."""
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length != ambient_dim")
        for row in self.basis:
            piv = next(i for i, x in enumerate(row) if x)
            if v[piv] != 0:
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return all(x == 0 for x in self.reduce(v))

    def contains_space(self, other):
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other):
        self._check(other)
        return Subspace.span(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Zassenhaus: A(ker B) on the generators (a, a), a in self, and (b, 0), b in other."""
        self._check(other)
        zero = (Fraction(0),) * self.ambient_dim
        pairs = [(r, r) for r in self.basis] + [(r, zero) for r in other.basis]
        return image_on_kernel(self.ambient_dim, self.ambient_dim, pairs)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")


def image_on_kernel(cond_dim, value_dim, generators) -> Subspace:
    """A(ker B) on the span of the generators, by one Zassenhaus elimination.

    generators yields the pairs (B g, A g) for g spanning the domain.  In
    the reduced row-echelon form of the rows [B g | A g], the rows whose
    pivot lies in the A block are exactly those whose B block is zero,
    and their A blocks are already the canonical basis of A(ker B).
    """
    rows = []
    for cond, value in generators:
        if len(cond) != cond_dim or len(value) != value_dim:
            raise ShapeError("generator pair does not match (cond_dim, value_dim)")
        rows.append(list(vec(cond)) + list(vec(value)))
    red, pivots, rank = _rref_rows(rows)
    return Subspace(
        value_dim, tuple(tuple(row[cond_dim:]) for row, c in zip(red, pivots) if c >= cond_dim)
    )


def kernel(m: Mat) -> Subspace:
    """Kernel {v : m v = 0} in canonical form."""
    red, pivots, rank = _rref_rows([list(r) for r in m.data])
    n = m.cols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * n
        v[fcol] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fcol]
        basis.append(v)
    return Subspace.span(n, basis)


def image(m: Mat) -> Subspace:
    """Column space in canonical form."""
    return Subspace.span(m.rows, [m.col(j) for j in range(m.cols)])
