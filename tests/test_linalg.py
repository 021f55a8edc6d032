import random
from fractions import Fraction

import pytest

from torsionlab.linalg import (
    Mat,
    ShapeError,
    Subspace,
    _rref_rows,
    dense,
    fr,
    image,
    image_on_kernel,
    kernel,
    solve_on_kernel,
    sparse,
)
from reference import (
    block,
    dense_image_on_kernel,
    dense_inverse,
    dense_kernel,
    dense_reduce,
    dense_rref_rows,
    dense_solve,
    dense_span,
)


def F(x):
    return Fraction(x)


def rand_mat(rng, rows, cols, span=6):
    return Mat(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def rref(m: Mat):
    """_rref_rows on the rows of m as dense nonzero rows, pivots and rank,
    checked against the dense reference."""
    red, pivots, rank = _rref_rows([sparse(r) for r in m.data])
    red = [dense(r, m.cols) for r in red]
    ref, ref_pivots, ref_rank = dense_rref_rows([list(r) for r in m.data])
    assert (red, pivots, rank) == ([tuple(r) for r in ref[:ref_rank]], ref_pivots, ref_rank)
    return red, pivots, rank


def test_rref_identity():
    m = Mat.identity(3)
    red, pivots, rank = rref(m)
    assert red == list(m.data)
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_zero():
    m = Mat.zeros(2, 4)
    red, pivots, rank = rref(m)
    assert red == []
    assert pivots == []
    assert rank == 0


def test_rref_rank_one():
    # [[2,4],[1,2]] row-reduces to [[1,2],[0,0]] by hand.
    m = Mat([[2, 4], [1, 2]])
    red, pivots, rank = rref(m)
    assert red == [(1, 2)]
    assert rank == 1


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(4)).dim == 0
    assert kernel(Mat.zeros(1, 3)) == Subspace.full(3)


def test_kernel_hand_example():
    # [[1,1,0]]: kernel solved by hand is span{(1,-1,0),(0,0,1)}.
    ker = kernel(Mat([[1, 1, 0]]))
    assert ker == Subspace.span(3, [(1, -1, 0), (0, 0, 1)])
    assert ker.dim == 2


def test_image():
    assert image(Mat.identity(3)) == Subspace.full(3)
    assert image(Mat.zeros(3, 2)).dim == 0
    assert image(Mat([[1, 2], [2, 4]])) == Subspace.span(2, [(1, 2)])


def test_subspace_sum_intersect():
    x_axis = Subspace.span(2, [(1, 0)])
    y_axis = Subspace.span(2, [(0, 1)])
    diag = Subspace.span(2, [(1, 1)])
    assert x_axis + y_axis == Subspace.full(2)
    assert Subspace.full(2).intersect(diag) == diag
    assert x_axis.intersect(diag) == Subspace.zero(2)


def test_image_on_kernel_edge_cases():
    # no generators (h.dim == 0): the zero subspace of the value space
    assert image_on_kernel(2, 3, []) == Subspace.zero(3)
    # no conditions (cond_dim == 0): the span of the values, canonical
    pairs = [((), (2, 4, 0)), ((), (1, 2, 0)), ((), (0, 0, 5))]
    got = image_on_kernel(0, 3, pairs)
    assert got == Subspace.span(3, [(1, 2, 0), (0, 0, 1)])
    assert got.basis == Subspace.span(3, [v for _, v in pairs]).basis
    # B injective on the domain: an empty image even though A is not zero
    assert image_on_kernel(2, 2, [((1, 0), (1, 1)), ((0, 1), (0, 1))]).dim == 0
    # ker B = span(g1 - g2), so the image is A(g1 - g2)
    got = image_on_kernel(1, 2, [((1,), (1, 0)), ((1,), (0, 1))])
    assert got == Subspace.span(2, [(1, -1)])
    with pytest.raises(ShapeError):
        image_on_kernel(1, 2, [((1, 0), (1, 0))])


def test_image_on_kernel_matches_kernel_then_map_randomized():
    rng = random.Random(11)
    for _ in range(30):
        d, c, v = rng.randint(1, 6), rng.randint(0, 4), rng.randint(1, 5)
        b_mat = rand_mat(rng, c, d) if c else Mat.zeros(0, d)
        a_mat = rand_mat(rng, v, d)
        ker = kernel(b_mat) if c else Subspace.full(d)
        expected = Subspace.span(v, [a_mat.matvec(x) for x in ker.basis])
        pairs = [(b_mat.col(j), a_mat.col(j)) for j in range(d)]
        assert image_on_kernel(c, v, pairs) == expected


def test_contains_and_reduce():
    s = Subspace.span(3, [(1, 0, 2), (0, 1, -1)])
    assert s.contains((2, 3, 1))
    assert not s.contains((0, 0, 1))
    assert s.reduce((1, 1, 1)) == (0, 0, 0)


def test_dimension_mismatch_errors():
    with pytest.raises(ShapeError):
        Subspace.span(2, [(1, 0)]) + Subspace.span(3, [(1, 0, 0)])
    with pytest.raises(ShapeError):
        Mat([[1, 2]]) * Mat([[1, 2]])


def test_rank_nullity_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_mat(rng, rows, cols)
        assert kernel(m).dim + image(m).dim == cols


def test_canonicalization_idempotent_order_independent():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 6)
        vs = [rand_mat(rng, 1, d).data[0] for _ in range(rng.randint(1, 5))]
        s1 = Subspace.span(d, vs)
        perm = vs[:]
        rng.shuffle(perm)
        s2 = Subspace.span(d, perm)
        assert s1 == s2
        assert Subspace.span(d, s1.basis) == s1


def test_modular_law_randomized():
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(2, 6)
        a = Subspace.span(d, [rand_mat(rng, 1, d).data[0] for _ in range(rng.randint(1, d))])
        b = Subspace.span(d, [rand_mat(rng, 1, d).data[0] for _ in range(rng.randint(1, d))])
        assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


def test_exactness_bit_identical():
    rng = random.Random(5)
    m = rand_mat(rng, 5, 7)
    assert rref(m) == rref(m)
    assert kernel(m) == kernel(m)


def test_inverse():
    m = Mat([[2, 1], [1, 1]])
    assert m.inverse() * m == Mat.identity(2)
    with pytest.raises(ShapeError):
        Mat([[1, 2], [2, 4]]).inverse()


def test_solve_on_kernel():
    # the generator pairs are the columns of [B; A]
    assert solve_on_kernel(0, 2, [([], [1, 0]), ([], [1, 1])], [3, 1]) == (F(2), F(1))
    assert solve_on_kernel(0, 2, [([], [1, 1]), ([], [1, 1])], [0, 1]) is None
    # underdetermined: free variables pinned to zero
    assert solve_on_kernel(0, 1, [({}, {0: F(1)}), ({}, {0: F(1)}), ({}, {})], [5]) == (F(5), F(0), F(0))
    # x_0 + x_1 = 0 on the kernel condition, x_0 - x_1 = 4 on the value
    assert solve_on_kernel(1, 1, [([1], [1]), ([1], [-1])], [4]) == (F(2), F(-2))
    assert solve_on_kernel(1, 1, [([1], [1]), ([1], [1])], [4]) is None
    assert solve_on_kernel(1, 1, [], [0]) == () and solve_on_kernel(1, 1, [], [1]) is None


def test_block_and_flatten():
    a = Mat([[1, 2], [3, 4]])
    b = block([[a, None], [None, Mat.identity(1)]])
    assert b == Mat([[1, 2, 0], [3, 4, 0], [0, 0, 1]])
    assert Mat.unflatten(2, 2, a.flatten()) == a


def test_unit_and_entry_span():
    from torsionlab.linalg import entry_span, unit

    assert unit(3, 1) == (0, 1, 0)
    # E_12 of gl(2), flattened row-major
    assert unit(4, 0 * 2 + 1) == Mat([[0, 1], [0, 0]]).flatten()
    upper = entry_span(2, lambda i, j: i <= j)
    assert upper.dim == 3 and not upper.contains(unit(4, 2))
    tied = entry_span(2, tied=[((0, 0), (1, 1))], extra=[unit(4, 1)])
    assert tied == Subspace.span(4, [(1, 0, 0, 1), (0, 1, 0, 0)])


def random_rows(rng, n_rows, n_cols):
    """Sparse rational rows with zero, duplicate and dependent rows mixed
    in; entries include non-unit and negative values and large numerators."""

    def entry():
        roll = rng.random()
        if roll < 0.55:
            return Fraction(0)
        if roll < 0.85:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**6))

    out = []
    for _ in range(n_rows):
        roll = rng.random()
        if out and roll < 0.15:
            out.append(list(rng.choice(out)))
        elif len(out) >= 2 and roll < 0.35:
            a, b = rng.sample(out, 2)
            ca, cb = entry() or Fraction(1), entry()
            out.append([ca * x + cb * y for x, y in zip(a, b)])
        elif roll < 0.45:
            out.append([Fraction(0)] * n_cols)
        else:
            out.append([entry() for _ in range(n_cols)])
    return out


SHAPES = [(6, 3), (9, 4), (3, 7), (2, 9), (5, 5), (7, 7), (1, 4), (4, 1)]  # tall, wide, square


def test_sparse_rref_equals_dense_reference():
    rng = random.Random(20261018)
    saw_scaled_pivot = False
    for trial in range(120):
        n_rows, n_cols = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n_rows, n_cols)
        sparse_rows = [sparse(r) for r in rows]
        before = [dict(r) for r in sparse_rows]
        red, pivots, rank = _rref_rows(sparse_rows)
        ref, ref_pivots, ref_rank = dense_rref_rows([list(r) for r in rows])
        assert (pivots, rank) == (ref_pivots, ref_rank)
        assert [dense(r, n_cols) for r in red] == [tuple(r) for r in ref[:rank]]
        assert all(x == 0 for r in ref[rank:] for x in r)
        assert sparse_rows == before  # the input rows are left unmodified
        saw_scaled_pivot |= any(r and r[min(r)] not in (0, 1) for r in sparse_rows)
    assert saw_scaled_pivot


def test_solvers_equal_dense_reference():
    rng = random.Random(1018)
    outcomes = set()
    for trial in range(80):
        n_rows, n_cols = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n_rows, n_cols)
        m = Mat(rows)
        # consistent right-hand sides come from a solution, the others are random
        if trial % 2:
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
            rhs = list(m.matvec(x))
        else:
            rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_rows)]
        got = solve_on_kernel(0, n_rows, zip([[]] * n_cols, m.transpose().data), rhs)
        assert got == dense_solve(rows, rhs)
        outcomes.add(got is None)
        assert kernel(m).basis == dense_kernel(rows, n_cols)
        assert Subspace.span(n_cols, rows).basis == dense_span(n_cols, rows)
        assert m.rank() == dense_rref_rows([list(r) for r in rows])[2]
        cond = rng.randint(0, n_cols)
        pairs = [(r[:cond], r[cond:]) for r in rows]
        assert image_on_kernel(cond, n_cols - cond, pairs).basis == dense_image_on_kernel(cond, pairs)
        span = Subspace.span(n_cols, rows)
        v = random_rows(rng, 1, n_cols)[0]
        assert span.reduce(v) == dense_reduce(span.basis, v)
        if n_rows == n_cols:
            full = Mat([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n_cols)] for _ in range(n_rows)])
            for square in (m, full):
                expected = dense_inverse(square)
                if expected is None:
                    outcomes.add("singular")
                    with pytest.raises(ShapeError):
                        square.inverse()
                else:
                    outcomes.add("invertible")
                    assert square.inverse() == expected
    assert outcomes == {True, False, "singular", "invertible"}


def test_reduce_and_contains_read_a_sparse_row():
    # a sparse row is read by its entries: (5, 1) is not on the line of e_2
    line = Subspace.span(2, [(0, 1)])
    assert not line.contains({0: F(5), 1: F(1)})
    assert line.reduce({0: F(5), 1: F(1)}) == (5, 0)
    rng = random.Random(24)
    outcomes = set()
    for trial in range(80):
        n_rows, n_cols = SHAPES[trial % len(SHAPES)]
        span = Subspace.span(n_cols, random_rows(rng, n_rows, n_cols))
        v = random_rows(rng, 1, n_cols)[0]
        if trial % 2:  # a member of the span
            v = [sum(rng.randint(-2, 2) * b[c] for b in span.basis) for c in range(n_cols)]
        expected = dense_reduce(span.basis, v)
        assert span.reduce(sparse(v)) == span.reduce(v) == expected
        assert span.contains(sparse(v)) == span.contains(v) == (not any(expected))
        outcomes.add(span.contains(v))
    assert outcomes == {True, False}


def test_a_stored_zero_in_a_sparse_row_is_dropped():
    zero = {0: F(0)}
    assert Subspace.span(2, [(0, 1)]).contains(zero)
    assert Subspace.span(2, [(0, 1)]).reduce(zero) == (0, 0)
    assert Subspace.span(2, [{0: F(0), 1: F(1)}]) == Subspace.span(2, [(0, 1)])


@pytest.mark.parametrize("cols", [[[1, 2], [3, 4, 5]], [[1, 2, 3], [4]], []], ids=["longer", "shorter", "none"])
def test_from_cols_needs_one_or_more_columns_of_one_length(cols):
    with pytest.raises(ShapeError):
        Mat.from_cols(cols)
    assert Mat.from_cols([[1, 2], [3, 4]]) == Mat([[1, 3], [2, 4]])


@pytest.mark.parametrize("index", [(-1, 0), (0, -1), (2, 0), (0, 2)])
def test_from_entries_refuses_an_index_outside_the_matrix(index):
    with pytest.raises(ShapeError):
        Mat.from_entries(2, {index: 1})
    assert Mat.from_entries(2, {(1, 0): 1}) == Mat([[0, 0], [1, 0]])


def test_the_dense_basis_is_made_once_and_kept():
    s = Subspace.span(3, [(1, 2, 0)])
    assert s.basis is s.basis and s.basis == ((1, 2, 0),)


@pytest.mark.parametrize("column", [4, 7, -1], ids=["width", "past-width", "negative"])
def test_a_sparse_row_column_outside_the_width_is_a_shape_error(column):
    with pytest.raises(ShapeError):
        Subspace.span(4, [{0: F(1)}, {column: F(1)}])
    with pytest.raises(ShapeError):
        Subspace.span(4, [(0, 1, 0, 0)]).contains({column: F(1)})
    assert Subspace.span(4, [{3: F(1)}]).basis == ((0, 0, 0, 1),)


def test_a_stored_zero_through_image_on_kernel():
    # the generator (B g, A g) = (0, e_1), with and without a stored zero in B g
    assert image_on_kernel(1, 1, [({0: F(0)}, (1,))]) == image_on_kernel(1, 1, [((0,), (1,))]) == Subspace.full(1)


def test_a_stored_zero_through_solve_on_kernel():
    # x B g = 0 and x A g = 2 for the one generator (0, e_1), and for (0, 0)
    # whose stored zero sits in A g
    expected = (F(2),)
    assert solve_on_kernel(1, 1, [({0: F(0)}, {0: F(1)})], (2,)) == solve_on_kernel(1, 1, [((0,), (1,))], (2,)) == expected
    assert solve_on_kernel(1, 1, [((1,), {0: F(0)})], {0: F(0)}) == solve_on_kernel(1, 1, [((1,), (0,))], (0,)) == (F(0),)


def test_solve_on_kernel_equals_dense_reference():
    """The first cond rows are the kernel condition B, the rest the value
    map A; the dense reference solves [B; A] x = [0; target]."""
    rng = random.Random(2020)
    outcomes = set()
    for trial in range(160):
        n_rows, n_cols = SHAPES[trial % len(SHAPES)]
        rows = random_rows(rng, n_rows, n_cols)
        cond = rng.randint(0, n_rows)
        if trial % 2:  # consistent: A x for x in ker B
            ker = dense_kernel(rows[:cond], n_cols)
            x = [sum((rng.randint(-2, 2) * v[c] for v in ker), F(0)) for c in range(n_cols)]
            target = list(Mat(rows[cond:], n_rows - cond, n_cols).matvec(x))
        else:
            target = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_rows - cond)]
        pairs = [(col[:cond], col[cond:]) for col in zip(*rows)]
        got = solve_on_kernel(cond, n_rows - cond, pairs, target)
        expected = dense_solve(rows, [F(0)] * cond + target)
        assert got == expected, (rows, cond, target)
        if got is not None:
            assert Mat(rows, n_rows, n_cols).matvec(got) == tuple([F(0)] * cond + target)
        outcomes.add((cond > 0, got is None))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_fr_reads_a_string_only_as_p_over_q():
    assert fr("-3/2") == Fraction(-3, 2) and fr("7") == 7 and fr("+4/6") == Fraction(2, 3)
    for text in ("0.5", "1e3", "1_0", " 3", "3 ", "1/2/3", "/2", "", "\u0663"):
        with pytest.raises(TypeError, match="not a rational value"):
            fr(text)
    with pytest.raises(ZeroDivisionError):
        fr("1/0")
