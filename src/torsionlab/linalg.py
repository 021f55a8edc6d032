"""Exact linear algebra over the rationals.

Callers see two dense value types: ``Mat``, an immutable matrix of
``fractions.Fraction`` entries, and ``Subspace``, a linear subspace of
Q^d in reduced row-echelon form, whose dense ``basis`` makes subspace
equality entry-wise tuple equality.  Inside, every elimination works
on sparse rows: a row is a dict {column: value} that holds only its
nonzero Fractions, and ``_rref_rows`` is the one elimination routine.
A Subspace keeps its canonical rows sparse; its dense basis, like every
``memo`` function of a value (a spectral table, an engine space), is
made on first use and kept on it.  Every value class derives from
``Value``: setting or deleting an attribute raises, and equality and
hash read one per-class key.

Flattening convention, fixed package-wide: a linear map R^a -> R^b is
stored as a b x a matrix and flattened row-major, entry (r, c) sits at
coordinate r*a + c.  No floating point is used anywhere: ``fr`` reads a
rational from an int, a Fraction or a string "p/q" or "p" in decimal
digits, and nothing else.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fr(x) -> Fraction:
    """Coerce an int, a string "p/q" or "p", or a Fraction to a Fraction;
    a bool, a float or any other string ("0.5", "1e9") is not rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool) or isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def vec(entries):
    return tuple(fr(x) for x in entries)


def sparse(entries) -> dict:
    """The sparse row {i: x} of the nonzero entries of a dense vector."""
    return {i: y for i, x in enumerate(entries) if (y := fr(x))}


def sparse_sum(terms) -> dict:
    """The sparse row of (col, value) terms, duplicates summed."""
    row = {}
    for c, x in terms:
        if x:
            row[c] = row[c] + x if c in row else x
    return {c: x for c, x in row.items() if x}


def dense(row, width) -> tuple:
    """The dense vector of length width with the entries of a sparse row."""
    out = [Fraction(0)] * width
    for c, x in row.items():
        out[c] = x
    return tuple(out)


def _row(v, width) -> dict:
    """A sparse row passes through, its stored zeros dropped, once its
    columns lie in range(width); a dense vector must have length width."""
    if isinstance(v, dict):
        if v and not (0 <= min(v) and max(v) < width):
            raise ShapeError(f"sparse row with a column outside 0..{width - 1}")
        return v if all(v.values()) else {c: x for c, x in v.items() if x}
    if len(v) != width:
        raise ShapeError(f"vector of length {len(v)} where {width} is needed")
    return sparse(v)


def unit(n, i) -> tuple:
    """The standard basis vector e_i of Q^n.  The unit matrix E_ij of
    gl(m), flattened, is unit(m * m, i * m + j)."""
    out = [Fraction(0)] * n
    out[i] = Fraction(1)
    return tuple(out)


def entry_span(m, allowed=lambda i, j: False, tied=(), extra=()):
    """The span in gl(m), flattened, of E_ij wherever allowed(i, j), of
    E_ij + E_kl for each tied pair ((i, j), (k, l)), and of extra."""
    one = Fraction(1)
    vecs = list(extra) + [{i * m + j: one} for i in range(m) for j in range(m) if allowed(i, j)]
    vecs += [sparse_sum([(i * m + j, one), (k * m + l, one)]) for (i, j), (k, l) in tied]
    return Subspace.span(m * m, vecs)


class ShapeError(ValueError):
    """Raised on dimension mismatches between exact-core operands."""


class Value:
    """Base of the immutable value classes: setting or deleting an
    attribute raises, so __init__ sets fields by ``_init`` (or by
    object.__setattr__ for the bulk Mat and Poly).  Values of one class
    are equal when their ``_key()`` is, and hash it; the default key,
    the id, makes equality identity."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _key(self):
        return id(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def memo(fn):
    """fn(x), made on first use and kept in the ``_memo`` dict of the value
    x: it is freed with x, and another object with an equal key makes its own."""

    @wraps(fn)
    def first_use(x):
        if fn not in x._memo:
            x._memo[fn] = fn(x)
        return x._memo[fn]

    return first_use


class Mat(Value):
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
            if not (0 <= i < n and 0 <= j < n):
                raise ShapeError(f"entry ({i}, {j}) outside the {n} x {n} matrix")
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
        """The matrix with the given columns, one or more of one length."""
        if len({len(col) for col in cols_list}) != 1:
            raise ShapeError("columns must be one or more vectors of one length")
        m = len(cols_list[0])
        return cls([[col[r] for col in cols_list] for r in range(m)])

    def _key(self):
        return self.rows, self.cols, self.data

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
        red, pivots, _ = _rref_rows([{**sparse(row), n + i: Fraction(1)} for i, row in enumerate(self.data)])
        if any(p >= n for p in pivots):
            raise ShapeError("matrix is singular")
        return Mat([dense({c - n: x for c, x in row.items() if c >= n}, n) for row in red], n, n)

    def rank(self):
        return _rref_rows([sparse(r) for r in self.data])[2]

    def _same_shape(self, other):
        if not isinstance(other, Mat) or self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("shape mismatch")


def _rref_rows(rows):
    """Reduced row-echelon form of sparse rows, which are left unmodified:
    (its nonzero rows in pivot order with ascending keys, pivots, rank).

    The RREF is unique, so the shortest rows go first, to keep fill-in
    low.  Each row is reduced by the pivot rows so far, pivots on its
    first column, is scaled only when that pivot is not 1 and is then
    eliminated from the earlier pivot rows.
    """
    done = {}  # pivot column -> its row, 1 at the pivot
    for row in sorted(rows, key=len):
        row = dict(row)
        for c in [c for c in row if c in done]:
            _axpy(row, -row.pop(c), done[c], c)
        if not row:
            continue
        p = min(row)
        if row[p] != 1:
            inv = Fraction(1) / row[p]
            row = {k: x * inv for k, x in row.items()}
        for other in done.values():
            g = other.pop(p, None)
            if g is not None:
                _axpy(other, -g, row, p)
        done[p] = row
    pivots = sorted(done)
    return [dict(sorted(done[p].items())) for p in pivots], pivots, len(pivots)


def _axpy(row, f, other, skip):
    """row += f * other in place, except at column skip; zeros are dropped."""
    for k, y in other.items():
        if k == skip:
            continue
        if k not in row:
            row[k] = f * y
        elif x := row[k] + f * y:
            row[k] = x
        else:
            del row[k]


def kernel_rows(rows, width):
    """Canonical sparse basis of {x in Q^width : row . x = 0 for every sparse row}."""
    red, pivots, _ = _rref_rows(rows)
    one = Fraction(1)
    free = {c: {c: one} for c in range(width)}
    for p in pivots:
        del free[p]
    for p, row in zip(pivots, red):
        for c, x in row.items():
            if c != p:
                free[c][p] = -x
    return _rref_rows(free.values())[0]


class Subspace(Value):
    """A subspace of Q^d in canonical (reduced row-echelon) form.

    rows holds the canonical basis as sparse rows in pivot order, each
    with ascending keys; basis is the same basis as dense tuples.
    """

    __slots__ = ("ambient_dim", "rows", "_memo")

    def __init__(self, ambient_dim, canonical_rows):
        self._init(ambient_dim=ambient_dim, rows=tuple(canonical_rows), _memo={})

    @classmethod
    def span(cls, ambient_dim, vectors):
        """The span of vectors, each a dense vector of length ambient_dim
        or a sparse row."""
        return cls(ambient_dim, _rref_rows([_row(v, ambient_dim) for v in vectors])[0])

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        one = Fraction(1)
        return cls(ambient_dim, ({i: one} for i in range(ambient_dim)))

    @property
    @memo
    def basis(self):
        return tuple(dense(r, self.ambient_dim) for r in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    def _key(self):
        return self.ambient_dim, tuple(tuple(r.items()) for r in self.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _residual(self, v) -> dict:
        """The sparse remainder of v, a dense vector or a sparse row, after
        elimination against the canonical rows.  The rows vanish at each
        other's pivots, so v's entry at a pivot is that row's coefficient."""
        v = _row(v, self.ambient_dim)
        out = dict(v)
        for row in self.rows:
            p = next(iter(row))
            if p in v:
                del out[p]
                _axpy(out, -v[p], row, p)
        return out

    def reduce(self, v):
        """Remainder of v after elimination against the canonical basis."""
        return dense(self._residual(v), self.ambient_dim)

    def contains(self, v):
        return not self._residual(v)

    def contains_space(self, other):
        return all(self.contains(row) for row in other.rows)

    def __add__(self, other):
        self._check(other)
        return Subspace.span(self.ambient_dim, self.rows + other.rows)

    def intersect(self, other):
        """Zassenhaus: A(ker B) on the generators (a, a), a in self, and (b, 0), b in other."""
        self._check(other)
        pairs = [(r, r) for r in self.rows] + [(r, {}) for r in other.rows]
        return image_on_kernel(self.ambient_dim, self.ambient_dim, pairs)

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")


def image_on_kernel(cond_dim, value_dim, generators) -> Subspace:
    """A(ker B) on the span of the generators, by one Zassenhaus elimination.

    generators yields the pairs (B g, A g) for g spanning the domain, each
    a dense vector or a sparse row.  In the reduced row-echelon form of
    the rows [B g | A g], the rows whose pivot lies in the A block are
    exactly those whose B block is zero, and their A blocks are already
    the canonical basis of A(ker B).
    """
    rows = []
    for cond, value in generators:
        row = dict(_row(cond, cond_dim))
        row.update((cond_dim + j, y) for j, y in _row(value, value_dim).items())
        rows.append(row)
    red, pivots, _ = _rref_rows(rows)
    return Subspace(
        value_dim, ({c - cond_dim: x for c, x in row.items()} for row, p in zip(red, pivots) if p >= cond_dim)
    )


def solve_on_kernel(cond_dim, value_dim, generators, target):
    """The first echelon x (free variables zero) with sum x_g B g = 0 and
    sum x_g A g = target, or None.  generators yields the pairs (B g, A g)
    as for image_on_kernel; their columns are transposed once into the
    sparse rows of [B | 0; A | target], whose RREF is unique."""
    rows = {}  # row of [B; A] -> {g: entry}, the target at column width
    width = 0
    for g, (cond, value) in enumerate(generators):
        width = g + 1
        for r, x in _row(cond, cond_dim).items():
            rows.setdefault(r, {})[g] = x
        for r, x in _row(value, value_dim).items():
            rows.setdefault(cond_dim + r, {})[g] = x
    for r, x in _row(target, value_dim).items():
        rows.setdefault(cond_dim + r, {})[width] = x
    red, pivots, _ = _rref_rows(rows.values())
    if pivots and pivots[-1] == width:
        return None
    sol = [Fraction(0)] * width
    for row, c in zip(red, pivots):
        sol[c] = row.get(width, sol[c])
    return tuple(sol)


def kernel(m: Mat) -> Subspace:
    """Kernel {v : m v = 0} in canonical form."""
    return Subspace(m.cols, kernel_rows([sparse(r) for r in m.data], m.cols))


def image(m: Mat) -> Subspace:
    """Column space in canonical form."""
    return Subspace.span(m.rows, [m.col(j) for j in range(m.cols)])
