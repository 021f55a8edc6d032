"""Matrix Lie subalgebras with attached geometric structures.

A ``LinearSubalgebra`` is a bracket-closed span of n x n rational
matrices together with optional attached data (complex structure J,
metric Gram g, product/tangent tensor, hyperparacomplex or hypercomplex
triple, symplectic form).  It keeps its elements as sparse flattened
rows, ``h.rows``, in the order given; every layer above reads the rows.
What is derived from h alone (the dense ``Mat`` view ``h.basis``, the
engine's spaces, the groups of the structural profile) is a ``memo``
function: made on first use and kept on h, so it lives and dies with h.
``STRUCTURE_KINDS`` says what each key is: an endomorphism or a triple
of endomorphisms that h commutes with, a bilinear form h is skew for,
or hyperplane-level data.  ``stabilizer``
writes "F preserves these structures" as linear rows and returns the
canonical sparse rows of its solution space, which is how every
classical builder gets its elements.
Attached structures are validated against their defining identities,
and the basis against preserving them, at construction unless
validation is skipped.  ``product`` multiplies two matrices given as
sparse flattened rows; the closure test ``is_subalgebra``, the spans
A h of ``left_span`` and ``conjugate`` are built on it.
``orthogonal_complement`` takes a Gram matrix as it is attached under "g".
"""

from __future__ import annotations

from .linalg import Mat, ShapeError, Subspace, Value, _row, dense, kernel, kernel_rows, memo, sparse, sparse_sum


def product(n, a, b) -> dict:
    """The product a b of two n x n matrices given as sparse flattened rows,
    as a sparse flattened row: (a b)[i][j] sums a[i][k] b[k][j] over the
    nonzero entries of a and of row k of b."""
    b_rows = {}
    for idx, y in b.items():
        b_rows.setdefault(idx // n, []).append((idx % n, y))
    return sparse_sum((idx - idx % n + j, x * y) for idx, x in a.items() for j, y in b_rows.get(idx % n, ()))


def commutator(n, a, b) -> dict:
    """[a, b] = a b - b a on sparse flattened rows."""
    return sparse_sum([*product(n, a, b).items(), *((c, -x) for c, x in product(n, b, a).items())])


def padded(n, row) -> dict:
    """A sparse flattened row of gl(n) as the top-left block of gl(n + 1)."""
    return {idx // n * (n + 1) + idx % n: x for idx, x in row.items()}


def is_subalgebra(basis) -> bool:
    """True iff the span of the matrices in basis is closed under the commutator."""
    basis = list(basis)
    return not basis or _closed(basis[0].rows, Subspace.span(basis[0].rows ** 2, [m.flatten() for m in basis]))


def _closed(n, span: Subspace) -> bool:
    """Whether span holds the commutator of each pair of its canonical
    rows, which are sparse when the span is large."""
    rows = span.rows
    return all(span.contains(commutator(n, a, b)) for i, a in enumerate(rows) for b in rows[i + 1 :])


def left_span(a: Mat, h: LinearSubalgebra) -> Subspace:
    """A h: the span of the products a b for b in h, flattened."""
    n = h.n
    a = sparse(a.flatten())
    return Subspace.span(n * n, [product(n, a, b) for b in h.span.rows])


# Every attached structure is a tensor that h preserves.  This table is
# the one place that says what each key is; validation, conjugation, the
# JSON reader, the stabilizer builders and the closed-form rules read it.
ENDOMORPHISM = "endomorphism"  # h commutes with A
TRIPLE = "triple"  # h commutes with each of (A, B, C)
FORM = "form"  # h is skew for B: B F + F^T B = 0
HYPERPLANE = "hyperplane"  # data on R^{n-1}, not preserved by h

STRUCTURE_KINDS = {
    "J": ENDOMORPHISM,
    "product": ENDOMORPHISM,
    "tangent": ENDOMORPHISM,
    "hpc": TRIPLE,
    "hypercomplex": TRIPLE,
    "g": FORM,
    "omega": FORM,
    "omega_u": HYPERPLANE,
    "lagrangian": HYPERPLANE,
}


def endomorphisms(key, value):
    """The endomorphisms h commutes with to preserve the structure value."""
    kind = STRUCTURE_KINDS[key]
    if kind == ENDOMORPHISM:
        return (value,)
    return tuple(value) if kind == TRIPLE else ()


# Conditions on F in gl(n) are sparse rows, {index: coefficient} dicts
# over the row-major entries of F; the condition is row . F = 0.


def _sparse(n, terms):
    """One row from (row, col, coefficient) terms of F, duplicates summed."""
    return sparse_sum((r * n + c, x) for r, c, x in terms)


def _commutator_rows(a: Mat):
    """A F - F A = 0, one row per entry."""
    n, d = a.rows, a.data
    return [
        _sparse(n, [(k, j, d[i][k]) for k in range(n)] + [(i, k, -d[k][j]) for k in range(n)])
        for i in range(n)
        for j in range(n)
    ]


def form_rows(b: Mat, sign=1):
    """B F + sign F^T B = 0, one row per entry: sign 1 says F is skew
    for B, sign -1 that F is self-adjoint for B."""
    n, d = b.rows, b.data
    return [
        _sparse(n, [(k, j, d[i][k]) for k in range(n)] + [(k, i, sign * d[k][j]) for k in range(n)])
        for i in range(n)
        for j in range(n)
    ]


def trace_row(m: Mat):
    """tr(M F) = 0."""
    n = m.rows
    return _sparse(n, [(k, i, m.data[i][k]) for i in range(n) for k in range(n)])


def _structure_rows(key, value):
    """The conditions 'F preserves the structure value attached under key'."""
    if STRUCTURE_KINDS[key] == FORM:
        return form_rows(value)
    return [row for a in endomorphisms(key, value) for row in _commutator_rows(a)]


def _kills(rows, flats):
    """Whether row . F = 0 for every row and every F among the sparse flats."""
    return all(sum(x * flat[i] for i, x in row.items() if i in flat) == 0 for flat in flats for row in rows)


def commutes(h, a: Mat) -> bool:
    """Whether every element of h commutes with a."""
    return _kills(_commutator_rows(a), h.rows)


def stabilizer(n, structures, rows=()):
    """The canonical sparse flattened rows spanning {F in gl(n) : F
    preserves every structure and row . F = 0 for every extra row}."""
    conditions = [r for key, value in structures.items() for r in _structure_rows(key, value)] + list(rows)
    return kernel_rows(conditions, n * n)


class StructureError(ValueError):
    """An attached structure fails its defining identity."""


def check_identity(key, value, n):
    """The defining identity of one attached tensor (input validation)."""
    kind = STRUCTURE_KINDS[key]
    if kind == HYPERPLANE:
        return  # hyperplane-level extras are not validated here
    tensors = (value,) if kind == FORM else endomorphisms(key, value)
    for a in tensors:
        if not isinstance(a, Mat) or a.rows != n or a.cols != n:
            raise ShapeError(f"{key} must consist of {n} x {n} matrices")
    ident = Mat.identity(n)
    if key == "J":
        if value * value != -1 * ident:
            raise StructureError("J^2 != -I")
    elif key == "g":
        if value.transpose() != value or value.rank() < n:
            raise StructureError("g must be symmetric invertible")
    elif key == "omega":
        if value.transpose() != -1 * value or value.rank() < n:
            raise StructureError("omega must be antisymmetric invertible")
    elif key == "product":
        if value * value != ident or value == ident or value == -1 * ident:
            raise StructureError("P^2 = I with P != +-I required")
    elif key == "tangent":
        if not (value * value).is_zero() or kernel(value) != Subspace.span(n, [value.col(j) for j in range(n)]):
            raise StructureError("T^2 = 0 with ker T = im T required")
    else:
        a, b, c = value
        sq_b = ident if key == "hpc" else -1 * ident
        if a * a != -1 * ident or b * b != sq_b:
            raise StructureError(f"{key} squares wrong")
        if a * b != c or b * a != -1 * c:
            raise StructureError(f"{key} triple identity fails")


def _element_row(n, m) -> dict:
    """An element of gl(n), an n x n Mat or a sparse flattened row, as a sparse flattened row."""
    if not isinstance(m, Mat):
        return _row(m, n * n)
    if m.rows != n or m.cols != n:
        raise ShapeError("basis must consist of n x n matrices")
    return sparse(m.flatten())


class LinearSubalgebra(Value):
    """Bracket-closed subspace of gl(n, Q) with optional attached structures;
    rows holds its elements in the order given, basis the same as Mats, and
    the slot _memo what the ``memo`` functions made from h."""

    __slots__ = ("n", "rows", "structures", "name", "_span", "_memo", "__weakref__")

    def __init__(self, n, elements, structures=None, name="", validate=True):
        rows = tuple(_element_row(n, m) for m in elements)
        structures = dict(structures or {})
        for key in structures:
            if key not in STRUCTURE_KINDS:
                raise StructureError(f"unknown structure {key!r}; known: {', '.join(STRUCTURE_KINDS)}")
        span = Subspace.span(n * n, rows)
        self._init(n=n, rows=rows, structures=structures, name=name, _span=span, _memo={})
        if validate:
            if span.dim != len(rows):
                raise ValueError("basis is linearly dependent")
            if not _closed(n, span):
                raise ValueError("basis is not bracket-closed")
            for key, value in structures.items():
                check_identity(key, value, n)
                if not self.preserves(key):
                    raise StructureError(f"basis element does not preserve {key}")

    @property
    @memo
    def basis(self):
        n = self.n
        return tuple(Mat.unflatten(n, n, dense(r, n * n)) for r in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def span(self) -> Subspace:
        return self._span

    def contains(self, m: Mat) -> bool:
        return self._span.contains(m.flatten())

    def preserves(self, key) -> bool:
        """Whether h carries the structure key and every element preserves it."""
        return key in self.structures and _kills(_structure_rows(key, self.structures[key]), self._span.rows)

    def element(self, coeffs) -> Mat:
        n = self.n
        flat = sparse_sum((idx, c * x) for c, row in zip(coeffs, self.rows) if c for idx, x in row.items())
        return Mat.unflatten(n, n, dense(flat, n * n))

    def _key(self):
        return self.n, self._span

    def __repr__(self):
        label = self.name or "subalgebra"
        return f"<{label}: dim {self.dim} in gl({self.n})>"


def conjugate(h: LinearSubalgebra, t: Mat) -> LinearSubalgebra:
    """The subalgebra T h T^{-1}, with attached structures conjugated along."""
    if not t.is_square() or t.rows != h.n:
        raise ShapeError("T must be an invertible n x n matrix")
    tinv = t.inverse()
    n, ts, tinvs = h.n, sparse(t.flatten()), sparse(tinv.flatten())
    rows = [product(n, product(n, ts, f), tinvs) for f in h.rows]
    structures = {}
    for key, value in h.structures.items():
        kind = STRUCTURE_KINDS[key]
        if kind == ENDOMORPHISM:
            structures[key] = t * value * tinv
        elif kind == TRIPLE:
            structures[key] = tuple(t * s * tinv for s in value)
        elif kind == FORM:
            structures[key] = tinv.transpose() * value * tinv
        # hyperplane-level data does not transport under a general T
    return LinearSubalgebra(n, rows, structures, name=f"{h.name}^T" if h.name else "", validate=False)


def commutant(a: Mat) -> LinearSubalgebra:
    """gl(A) = {F : AF = FA}, as a subalgebra."""
    if not a.is_square():
        raise ShapeError("commutant of non-square matrix")
    return LinearSubalgebra(a.rows, stabilizer(a.rows, {}, _commutator_rows(a)), name="gl(A)", validate=False)


def orthogonal_complement(g: Mat, s: Subspace) -> Subspace:
    """The g-orthogonal {x : g(b, x) = 0 for every b in s} of s."""
    rows = [list(g.matvec(b)) for b in s.basis]
    if not rows:
        return Subspace.full(g.rows)
    return kernel(Mat(rows, len(rows), g.rows))
