from fractions import Fraction
from functools import wraps

import pytest

from torsionlab.builders import (
    build_delta_gl,
    build_gl,
    build_gl_C,
    build_gl_H,
    build_lagrangian_symplectic,
    build_so,
    build_so_g,
    build_sp,
    build_sp_H,
    build_su,
    build_u,
    catalog,
    pair_swap_gram,
    standard_omega,
    witt_gram,
)
from reference import dense_solve
from test_cli import SPACE_RUNGS
from torsionlab import profiles
from torsionlab.algebras import LinearSubalgebra, StructureError, memo, orthogonal_complement
from torsionlab.cli import parse_algebra
from torsionlab.engine import obstruction_space
from torsionlab.linalg import Mat, Subspace, image_on_kernel, kernel
from torsionlab.profiles import (
    NoRuleApplies,
    _detect_line_prolongation,
    _preimage,
    applicable_rules,
    closed_form_F,
    crosscheck,
    profile,
    totally_real_type,
)


def test_profile_so4():
    prof = profile(build_so(4))
    assert prof.h1.dim == 0
    assert prof.W.dim == 0


def test_profile_u2_h2():
    prof = profile(build_u(2))
    # the rotation in the (e3, e4)-plane is the only element killing R^3_J
    rot = Mat(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert prof.h2 == Subspace.span(16, [rot.flatten()])
    assert prof.h2_inv.dim == 0
    assert prof.h2_J.dim == 0


def test_profile_lagrangian_symplectic():
    h = build_lagrangian_symplectic(2)
    prof = profile(h)
    lag = h.structures["lagrangian"]
    om = h.structures["omega_u"]
    # U = the omega-flats of L
    flats = [tuple(sum(u[i] * om.data[i][j] for i in range(4)) for j in range(4)) for u in lag.basis]
    assert prof.U_cal == Subspace.span(4, flats)
    # nu is pinned by F = alpha x v - beta x nu(alpha); here nu(alpha) = -alpha^sharp
    for t, alpha in enumerate(prof.U_cal.basis):
        nu_a = prof.nu.col(t)
        sharp = dense_solve([[om.data[i][j] for i in range(4)] for j in range(4)], list(alpha))
        # omega(sharp, .) = alpha, i.e. sharp^T om = alpha
        assert sharp is not None
        assert tuple(-x for x in nu_a) == tuple(sharp)
    # injective-or-zero
    assert prof.nu.rank() in (0, prof.U_cal.dim)


def test_totally_real_types():
    assert totally_real_type(build_gl_H(1))[0] == "I"
    assert totally_real_type(build_u(2))[0] == "III"
    assert totally_real_type(build_delta_gl(2))[0] == "II"
    with pytest.raises(ValueError):
        totally_real_type(build_gl_C(2))  # complex, not totally real


def test_closed_form_gl2C():
    sub, label = closed_form_F(build_gl_C(2))
    assert label == "complex"
    assert sub.dim == 5
    assert sub == obstruction_space(build_gl_C(2))


def test_closed_form_so22():
    h = build_so(2, 2)
    sub, label = closed_form_F(h)
    assert sub == obstruction_space(h)


def test_closed_form_lagrangian():
    h = build_lagrangian_symplectic(2)
    sub, label = closed_form_F(h)
    assert label == "S2Uv"
    assert sub.dim == 4
    assert sub == obstruction_space(h)


def test_closed_form_no_rule():
    # a subalgebra with no attached structure and non-vanishing prolongation
    from torsionlab.builders import build_gl

    with pytest.raises(NoRuleApplies):
        closed_form_F(build_gl(3))


def test_crosscheck_sp4():
    rep = crosscheck(build_sp(2))
    assert rep["engine_dim"] == 6
    assert rep["any_rule"]
    assert rep["all_equal"]


def test_sp_full_fires_only_on_all_of_sp():
    # u(2) preserves omega0 too, but is a proper subalgebra of sp(4, R)
    sub = LinearSubalgebra(4, build_u(2).basis, {"omega": standard_omega(4)}, name="u(2)-omega")
    assert "sp-full" in dict(applicable_rules(build_sp(2)))
    assert "sp-full" not in dict(applicable_rules(sub))


def test_crosscheck_u2():
    rep = crosscheck(build_u(2))
    assert rep["engine_dim"] == 2
    assert rep["all_equal"]
    labels = {r["rule"] for r in rep["rules"]}
    assert "totally-real" in labels
    assert "unitary" in labels
    assert "nondeg-metric" in labels


def test_crosscheck_delta_gl2():
    rep = crosscheck(build_delta_gl(2))
    assert rep["engine_dim"] == 4  # (m-1)^2 + 2(m-1) + 1 with m = 2
    assert rep["all_equal"]


def test_crosscheck_degenerate_metric():
    # the degenerate unitary case satisfies the degenerate-metric theorem
    h = build_u(1, 1, gram=pair_swap_gram(2))
    rep = crosscheck(h)
    labels = {r["rule"] for r in rep["rules"]}
    assert "deg-metric" in labels
    assert "unitary" in labels
    assert rep["all_equal"], rep
    # the full so(g) of a degenerate gram fails h_perp = h_perp^{R^{n-1}}:
    # no closed form fires, the generic engine is the only route
    for hh in (build_so_g(witt_gram(3)), build_so_g(witt_gram(4))):
        rep = crosscheck(hh)
        assert not any(r["rule"] == "deg-metric" for r in rep["rules"])
        assert rep["all_equal"]


def test_crosscheck_entire_catalog():
    # the catalog and the space --with-bases rungs: between them every
    # group of the profile is read by some rule
    for h in catalog() + [parse_algebra(rung) for rung in SPACE_RUNGS]:
        rep = crosscheck(h)
        assert rep["all_equal"], (h.name, [(r["rule"], r["dim"], r["equal"]) for r in rep["rules"]])


def test_k1_zero_rule_block_example():
    # h = [[A, 0, 0], [0, 0, v], [0, 0, 0]] with A = so(2): F = [[A, 0], [B, C]]
    from torsionlab.algebras import LinearSubalgebra

    rot = Mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    shift = Mat([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    h = LinearSubalgebra(4, [rot, shift], name="block-example")
    sub, label = closed_form_F(h)
    assert label == "K1-zero"
    expected = Subspace.span(
        9,
        [rot.submatrix(range(3), range(3)).flatten()]
        + [Mat([[0, 0, 0], [0, 0, 0], [a, b, c]]).flatten() for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
    )
    assert sub == expected
    assert sub == obstruction_space(h)


def test_k1_zero_rule_case_b():
    # h = span{E13, E33}: h1 = h strictly contains h1_inv = span{E13},
    # so the projected-tableau branch fires; by hand F = (R^2)* x <e1>
    from torsionlab.algebras import LinearSubalgebra

    e13 = Mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    e33 = Mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    h = LinearSubalgebra(3, [e13, e33], name="case-b")
    prof = profile(h)
    assert prof.h1.dim == 2 and prof.h1_inv.dim == 1 and prof.W.dim == 1
    sub, label = closed_form_F(h)
    assert label == "K1-zero"
    expected = Subspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert sub == expected == obstruction_space(h)


# Reference route for _preimage: one callable per scalar functional,
# each recomputing F x, as profiles.py encoded the conditions before.


def _ref_sub_with_conditions(h, conds):
    n = h.n
    pairs = (([cond(b) for cond in conds], b.flatten()) for b in h.basis)
    return image_on_kernel(len(conds), n * n, pairs)


def _ref_column_kill(vectors, n):
    return [lambda f, x=tuple(x), k=k: f.matvec(x)[k] for x in vectors for k in range(n)]


def _ref_into_hyperplane(vectors, n):
    return [lambda f, x=tuple(x): f.matvec(x)[n - 1] for x in vectors]


def _ref_into_subspace(vectors, target):
    ann = kernel(Mat([list(b) for b in target.basis], target.dim, target.ambient_dim)).basis
    return [
        lambda f, x=tuple(x), a=a: sum(ai * fi for ai, fi in zip(a, f.matvec(x)))
        for x in vectors
        for a in ann
    ]


def _table_cases(h):
    """(row, vectors, target, reference conditions) for each profile subspace h carries."""
    n = h.n
    ee = [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]
    hyper = ee[: n - 1]
    hyperplane = Subspace.span(n, hyper)
    zero = Subspace.zero(n)
    cases = [
        ("h1", hyper, zero, _ref_column_kill(hyper, n)),
        ("h1_inv", ee[n - 1 :], hyperplane, _ref_into_hyperplane(ee[n - 1 :], n)),
        ("h2_inv", hyper, hyperplane, _ref_into_hyperplane(hyper, n)),
        ("h_perp_inv", ee, hyperplane, _ref_into_hyperplane(ee, n)),
    ]
    j = h.structures.get("J")
    if j is not None:
        rj = hyperplane.intersect(Subspace.span(n, [j.matvec(x) for x in hyper]))
        cases.append(("h2", rj.basis, zero, _ref_column_kill(rj.basis, n)))
        cases.append(("h2_J", hyper, rj, _ref_into_subspace(hyper, rj)))
        cases.append(("type-II", rj.basis, hyperplane, _ref_into_hyperplane(rj.basis, n)))
    v0 = _detect_line_prolongation(h)
    if v0 is not None:
        line = Subspace.span(n, [v0])
        cases.append(("hv", hyper, line, _ref_into_subspace(hyper, line)))
        cases.append(("hv_inv", [v0], hyperplane, _ref_into_hyperplane([v0], n)))
    g = h.structures.get("g")
    if g is not None:
        perp = orthogonal_complement(g, hyperplane)
        # for a non-degenerate hyperplane perp is the line of v0, the nondeg-metric h_v
        cases.append(("h_perp", hyper, perp, _ref_into_subspace(hyper, perp)))
    return cases


@pytest.mark.parametrize(
    "h",
    catalog() + [build_gl(4), build_sp(3), build_so(5), build_u(3)],
    ids=lambda h: h.name,
)
def test_preimage_matches_functional_conditions(h):
    for row, vectors, target, conds in _table_cases(h):
        assert _preimage(h.span.rows, vectors, target) == _ref_sub_with_conditions(h, conds), row


def test_preimage_edge_cases():
    h = build_gl(3)
    e3 = (Fraction(0), Fraction(0), Fraction(1))
    # no vectors: every element; full target: every element; no generators: zero
    assert _preimage(h.span.rows, [], Subspace.zero(3)) == h.span
    assert _preimage(h.span.rows, [e3], Subspace.full(3)) == h.span
    assert _preimage([], [e3], Subspace.zero(3)).dim == 0
    # F e3 = 0 kills the third column: 6 of the 9 entries stay free
    assert _preimage(h.span.rows, [e3], Subspace.zero(3)).dim == 6


def count_group_builds(monkeypatch):
    """(algebra name, group name) of each profile group built, once per
    build: every group is swapped for a memo of a counting copy."""
    calls = []

    def counting(group):
        build = group.__wrapped__
        return memo(wraps(build)(lambda h: calls.append((h.name, build.__name__)) or build(h)))

    swapped = {group: counting(group) for group in set(profiles._GROUP_OF.values())}
    for group, copy in swapped.items():
        monkeypatch.setattr(profiles, group.__name__, copy)
    monkeypatch.setattr(profiles, "_GROUP_OF", {name: swapped[group] for name, group in profiles._GROUP_OF.items()})
    return calls


@pytest.fixture
def group_builds(monkeypatch):
    return count_group_builds(monkeypatch)


@pytest.mark.parametrize(
    "run, builder, groups",
    [
        (
            applicable_rules,
            lambda: build_su(2),
            ["_base_group", "_j_chain", "_j_span", "_line_group", "_normal_group", "_rj_group"],
        ),
        (closed_form_F, lambda: build_delta_gl(3), ["_j_chain", "_j_span", "_rj_group"]),
        (closed_form_F, lambda: build_gl_C(2), ["_j_span"]),
    ],
    ids=["applicable_rules-su2", "closed_form_F-delta_gl3", "closed_form_F-gl_C2"],
)
def test_one_profile_per_rule_pass(group_builds, run, builder, groups):
    # each group of the profile is built at most once, only when a rule
    # reads one of its fields: su(2)'s three metric rules share one normal
    # group, and a second pass builds nothing
    h = builder()
    run(h)
    run(h)
    assert sorted(group_builds) == [(h.name, group) for group in groups]


@pytest.mark.parametrize(
    "builder",
    [lambda: build_u(2), lambda: build_u(1, 1, gram=pair_swap_gram(2)), lambda: build_so(2, 2)],
    ids=["u2", "u11-pair-swap", "so22"],
)
def test_crosscheck_computes_the_normal_of_the_hyperplane_once(monkeypatch, builder):
    from torsionlab import algebras

    h = builder()
    hyperplane = Subspace.span(h.n, [tuple(Fraction(int(i == j)) for i in range(h.n)) for j in range(h.n - 1)])
    normals = []
    real = algebras.orthogonal_complement

    def counting(g, s):
        normals.append(s == hyperplane)
        return real(g, s)

    monkeypatch.setattr(algebras, "orthogonal_complement", counting)
    monkeypatch.setattr(profiles, "orthogonal_complement", counting)
    rep = crosscheck(h)
    assert rep["all_equal"] and {"nondeg-metric", "unitary", "deg-metric"} & {r["rule"] for r in rep["rules"]}
    assert normals.count(True) == 1


def test_profile_is_not_shared_between_equal_spans():
    # equal spans hash equal, but only the structured copy has J and g;
    # each keeps its own groups
    h = build_sp_H(1)
    bare = LinearSubalgebra(4, h.basis, name="sp(1)-bare", validate=False)
    assert bare == h and hash(bare) == hash(h)
    assert profile(h).W is profile(h).W and profile(bare).W is profile(bare).W
    assert profile(h).W is not profile(bare).W
    assert profile(h).RJ is not None and profile(h).h_perp is not None and profile(h).N is not None
    assert all(getattr(profile(bare), field) is None for field in ("RJ", "h2", "h_perp", "N"))


def _upper_triangular(n):
    return [Mat.from_entries(n, {(i, j): 1}) for i in range(n) for j in range(i, n)]


@pytest.mark.parametrize(
    "h",
    [
        LinearSubalgebra(3, _upper_triangular(3), {"g": Mat.identity(3)}, validate=False),
        LinearSubalgebra(4, _upper_triangular(4), {"g": Mat.identity(4)}, validate=False),
        LinearSubalgebra(3, build_so(3).rows, {"g": witt_gram(3)}, validate=False),
    ],
    ids=["upper-triangular-3", "upper-triangular-4", "so3-with-witt-gram"],
)
def test_metric_rules_need_h_to_preserve_g(h):
    # h carries g but does not preserve it: no metric datum is read off g
    assert not h.preserves("g")
    prof = profile(h)
    assert prof.N is None and prof.degenerate is None and prof.h_perp is None
    rep = crosscheck(h)
    assert rep["all_equal"]
    assert not {"nondeg-metric", "unitary", "deg-metric"} & {r["rule"] for r in rep["rules"]}


def test_an_unvalidated_gram_meets_its_identity_before_a_metric_rule_reads_it():
    # so(2,1)'s first element preserves the singular diag(1, 1, 0); unvalidated,
    # h reaches the metric group, which checks g before taking its normal
    h = LinearSubalgebra(3, build_so(2, 1).rows[:1], {"g": Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])}, validate=False)
    assert h.preserves("g")
    with pytest.raises(StructureError, match="g must be symmetric invertible"):
        crosscheck(h)
    with pytest.raises(StructureError):
        profile(h).N
