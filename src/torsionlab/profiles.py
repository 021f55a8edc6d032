"""Closed-form obstruction-space formulas and the structural data they need.

Each closed-form rule tests its own hypothesis (complex, commuting
endomorphism, totally real by type, vanishing first prolongation,
S^2 U x v prolongation shape, metric non-degenerate/degenerate,
unitary) and, when it holds, returns its formula for F.  ``crosscheck``
evaluates every rule that fires and compares the result with the
generic engine; a mismatch is reported, never swallowed.

Every subspace of the structural profile but J h, R_J and N is a
preimage {F in h : F x in T for every x in X}, computed by ``_preimage``.
The profile comes in groups (h_1, J h, R_J, the h_2 chain, the line
prolongation, the normal N of R^{n-1}, the metric family), each a
``memo`` function of h: built when a rule first reads one of its
fields, and kept on h.  ``profile(h)`` is a view that reads them.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import LinearSubalgebra, check_identity, commutes, endomorphisms, left_span, memo, orthogonal_complement
from .builders import standard_omega
from .engine import characteristic_subalgebra, first_prolongation, obstruction_space, tableau
from .linalg import Mat, Subspace, Value, image_on_kernel, kernel_rows, solve_on_kernel, sparse, sparse_sum, unit


class NoRuleApplies(ValueError):
    """No closed-form theorem covers this subalgebra; use the generic engine."""


def _preimage(mats, vectors, target: Subspace) -> Subspace:
    """{F in span(mats) : F x in target for every x in vectors}, flattened.

    mats are flattened n x n matrices as sparse rows.  F x is computed
    from the nonzero entries of F once per element and vector; pairing
    it with the rows of target's annihilator gives the conditions that
    image_on_kernel kills.
    """
    n = target.ambient_dim
    ann = kernel_rows(target.rows, n)
    xs = [sparse(x) for x in vectors]

    def conditions(f):
        terms = []
        for s, x in enumerate(xs):
            fx = sparse_sum((idx // n, y * x[idx % n]) for idx, y in f.items() if idx % n in x)
            terms += [(s * len(ann) + t, a[r] * y) for t, a in enumerate(ann) for r, y in fx.items() if r in a]
        return sparse_sum(terms)

    return image_on_kernel(len(xs) * len(ann), n * n, ((conditions(f), f) for f in mats))


def _hyperplane(n) -> Subspace:
    return Subspace.span(n, [unit(n, j) for j in range(n - 1)])


def _mats_of(span: Subspace, n):
    return [Mat.unflatten(n, n, flat) for flat in span.basis]


@memo
def _base_group(h):
    """h_1 (killing R^{n-1}), h_1^inv (also preserving it) and W."""
    n = h.n
    h1 = _preimage(h.span.rows, [unit(n, j) for j in range(n - 1)], Subspace.zero(n))
    h1_inv = _preimage(h1.rows, [unit(n, n - 1)], _hyperplane(n))
    w = Subspace.span(n - 1, [f.col(n - 1)[: n - 1] for f in _mats_of(h1_inv, n)])
    return {"h1": h1, "h1_inv": h1_inv, "W": w}


@memo
def _j_span(h):
    """J h, when h preserves its complex structure J."""
    return {"Jh": left_span(h.structures["J"], h) if h.preserves("J") else None}


@memo
def _rj_group(h):
    """R_J = R^{n-1} meet J R^{n-1}, when h carries J."""
    j, n = h.structures.get("J"), h.n
    return {"RJ": None if j is None else _hyperplane(n).intersect(Subspace.span(n, [j.col(i) for i in range(n - 1)]))}


@memo
def _j_chain(h):
    """The chain h_2 >= h_2^inv >= h_2^J of the elements killing R_J."""
    rj = _rj_group(h)["RJ"]
    if rj is None:
        return dict.fromkeys(("h2", "h2_inv", "h2_J"))
    n = h.n
    hyper = [unit(n, i) for i in range(n - 1)]
    h2 = _preimage(h.span.rows, rj.basis, Subspace.zero(n))
    return {"h2": h2, "h2_inv": _preimage(h2.rows, hyper, _hyperplane(n)), "h2_J": _preimage(h2.rows, hyper, rj)}


@memo
def _line_group(h):
    """The line of K^(1)'s values, h_v, h_v^inv, U and nu."""
    v0 = _detect_line_prolongation(h)
    if v0 is None:
        return dict.fromkeys(("v_line", "hv", "hv_inv", "U_cal", "nu"))
    n = h.n
    v_line = Subspace.span(n, [v0])
    hv = _preimage(h.span.rows, [unit(n, j) for j in range(n - 1)], v_line)
    u_cal = Subspace.span(n - 1, [tuple(y / v0[n - 1] for y in f.data[n - 1][: n - 1]) for f in _mats_of(hv, n)])
    return {
        "v_line": v_line,
        "hv": hv,
        "hv_inv": _preimage(hv.rows, [v0], _hyperplane(n)),
        "U_cal": u_cal,
        "nu": _nu_map(h, u_cal, v0),
    }


@memo
def _normal_group(h):
    """N, the g-orthogonal of R^{n-1}, and whether R^{n-1} is degenerate
    (N, a line since g is invertible, lies in R^{n-1}), when h preserves g;
    g meets its identity first, as h may have been built unvalidated."""
    if not h.preserves("g"):
        return {"N": None, "degenerate": None}
    g, hyperplane = h.structures["g"], _hyperplane(h.n)
    check_identity("g", g, h.n)
    normal = orthogonal_complement(g, hyperplane)
    return {"N": normal, "degenerate": hyperplane.contains_space(normal)}


@memo
def _metric_group(h):
    """h_perp (mapping R^{n-1} into N), h_perp^inv and U~."""
    normal = _normal_group(h)["N"]
    if normal is None:
        return dict.fromkeys(("h_perp", "h_perp_inv", "U_tilde"))
    n = h.n
    h_perp = _preimage(h.span.rows, [unit(n, j) for j in range(n - 1)], normal)
    h_perp_inv = _preimage(h_perp.rows, [unit(n, j) for j in range(n)], _hyperplane(n))
    u_tilde = Subspace.span(n - 1, [f.col(jcol)[: n - 1] for f in _mats_of(h_perp_inv, n) for jcol in range(n)])
    return {"h_perp": h_perp, "h_perp_inv": h_perp_inv, "U_tilde": u_tilde}


# the group that builds each field
_GROUP_OF = {
    **dict.fromkeys(("h1", "h1_inv", "W"), _base_group),
    "Jh": _j_span,
    "RJ": _rj_group,
    **dict.fromkeys(("h2", "h2_inv", "h2_J"), _j_chain),
    **dict.fromkeys(("v_line", "hv", "hv_inv", "U_cal", "nu"), _line_group),
    **dict.fromkeys(("N", "degenerate"), _normal_group),
    **dict.fromkeys(("h_perp", "h_perp_inv", "U_tilde"), _metric_group),
}


class StructuralProfile(Value):
    """The subspaces h_1, W, J h, R_J, the h_2 chain, h_v with U and nu, N
    and the degenerate-metric family, each in canonical form (None when
    the needed structure is absent).  A view of h: a field is read from
    its group, which is built and kept on h when a field is first read."""

    __slots__ = ("h",)

    def __init__(self, h: LinearSubalgebra):
        self._init(h=h)

    def __getattr__(self, name):
        if name not in _GROUP_OF:
            raise AttributeError(name)
        return _GROUP_OF[name](self.h)[name]


def profile(h: LinearSubalgebra) -> StructuralProfile:
    """The structural profile of h; its groups are kept on h, not on the view."""
    return StructuralProfile(h)


def _detect_line_prolongation(h):
    """If all K^(1) values lie on one line through v outside R^{n-1}, return v."""
    n = h.n
    k1 = first_prolongation(h)
    if k1.dim == 0:
        return None
    values = {}  # (basis row, slice i*(n-1) + j) -> the value Y(e_i, e_j) in R^n
    for r, flat in enumerate(k1.rows):
        for c, x in flat.items():
            values.setdefault((r, c // n), {})[c % n] = x
    line = Subspace.span(n, values.values())
    if line.dim != 1:
        return None
    v0 = line.basis[0]
    if v0[n - 1] == 0:
        return None
    return v0


def _nu_map(h, u_cal, v0):
    """nu on U, pinned by F = alpha x v - beta x nu(alpha) for F in h_v,
    as the (n-1) x dim U matrix of its values on U's canonical basis.
    F is one solve, with no kernel condition, over the elements of h
    read on R^{n-1}."""
    n = h.n
    # F[k][j] sits at k*n + j, in F flattened and in alpha x v0
    pairs = [({}, {idx: x for idx, x in row.items() if idx % n < n - 1}) for row in h.rows]
    # e_n = u0 + v0 / v0[n-1] with u0 in the hyperplane
    c = Fraction(1) / v0[n - 1]
    u0 = tuple(e - c * x for e, x in zip(unit(n, n - 1), v0))
    cols = []
    for alpha in u_cal.basis:
        target = [alpha[j] * v0[k] if j < n - 1 else 0 for k in range(n) for j in range(n)]
        sol = solve_on_kernel(0, n * n, pairs, target)
        if sol is None:
            raise AssertionError("U was not computed from h_v")
        alpha_u0 = sum(alpha[i] * u0[i] for i in range(n - 1))
        fen = h.element(sol).col(n - 1)
        cols.append(tuple(v0[n - 1] * (alpha_u0 * v0[k] - fen[k]) for k in range(n - 1)))
    return Mat([[col[r] for col in cols] for r in range(n - 1)], n - 1, len(cols))


def totally_real_type(h: LinearSubalgebra, j: Mat | None = None):
    """Type tag (I-IV) and the witnesses the closed-form theorem needs."""
    j = j if j is not None else h.structures.get("J")
    if j is None:
        raise KeyError("totally real typing needs a complex structure J")
    if h.span.intersect(left_span(j, h)).dim != 0:
        raise ValueError("subalgebra is not totally real: h meets Jh")
    return _totally_real_type(h, j, profile(h))


def _totally_real_type(h, j, prof):
    n = h.n
    d2, d2r, d2j = prof.h2.dim, prof.h2_inv.dim, prof.h2_J.dim
    if not (d2j <= d2r <= d2 and d2r - d2j <= 1 and d2 - d2r <= 1):
        raise AssertionError("h2 chain steps must have codimension at most 1")
    if d2j == d2:
        tag = "I"
    elif d2j != d2r and d2r == d2:
        tag = "II"
    elif d2j == d2r and d2r != d2:
        tag = "III"
    else:
        tag = "IV"
    witnesses = {"h2_chain_dims": (d2j, d2r, d2)}
    v_in_hyper = next(unit(n, j) for j in range(n - 1) if not prof.RJ.contains(unit(n, j)))
    if tag == "III":
        f = _pick_outside(prof.h2, prof.h2_inv, n)
        fv = f.matvec(v_in_hyper)
        jfv = j.matvec(fv)
        lam = jfv[n - 1] / fv[n - 1]
        witnesses.update(F=f, lam=lam)
    if tag == "IV":
        f1 = _pick_outside(prof.h2_inv, prof.h2_J, n)
        f2p = _pick_outside(prof.h2, prof.h2_inv, n)
        jf1v = j.matvec(f1.matvec(v_in_hyper))
        jf2pv = j.matvec(f2p.matvec(v_in_hyper))
        lam = jf2pv[n - 1] / jf1v[n - 1]
        f2 = f2p - f1.scale(lam)
        mu = f2.matvec(v_in_hyper)[n - 1] / jf1v[n - 1]
        witnesses.update(F1=f1.scale(mu), F2=f2)
    return tag, witnesses


def _pick_outside(big: Subspace, small: Subspace, n):
    """A matrix spanning big over small (both given as flattened spans)."""
    for flat in big.basis:
        if not small.contains(flat):
            return Mat.unflatten(n, n, flat)
    raise AssertionError("spaces were equal")


# ---------------------------------------------------------------------------
# closed-form rules: rule(h, prof) returns None when its hypothesis fails,
# else (F, tag); prof is h's StructuralProfile.


def _rule_complex(h, prof):
    if prof.Jh is None or prof.Jh != h.span:
        return None
    return characteristic_subalgebra(h), None


def _rule_commuting_endo(h, prof):
    n = h.n
    # every attached endomorphism but J, which the complex rule covers
    candidates = [a for key, value in h.structures.items() if key != "J" for a in endomorphisms(key, value)]
    for a in candidates:
        if not commutes(h, a):
            continue
        if all(x == 0 for x in a.data[n - 1][: n - 1]):
            continue  # hyperplane is A-invariant
        if h.span.contains_space(left_span(a, h)):
            return characteristic_subalgebra(h), None
    return None


def _rule_totally_real(h, prof):
    if prof.Jh is None or h.span.intersect(prof.Jh).dim != 0:
        return None
    j = h.structures["J"]
    tag, wit = _totally_real_type(h, j, prof)
    if tag == "II" and not _type_II_extra_condition(h, prof):
        return None
    n = h.n
    hyper = range(n - 1)
    extra = [(j * f).submatrix(hyper, hyper) for f in _mats_of(prof.h2_J, n)]
    if tag == "III":
        f, lam = wit["F"], wit["lam"]
        extra.append((j * f - f.scale(lam)).submatrix(hyper, hyper))
    if tag == "IV":
        f1, f2 = wit["F1"], wit["F2"]
        extra.append((f2 - j * f1).submatrix(hyper, hyper))
        extra.append((j * f2).submatrix(hyper, hyper))
    vecs = list(characteristic_subalgebra(h).basis) + [m.flatten() for m in extra]
    return Subspace.span((n - 1) * (n - 1), vecs), tag


def _type_II_extra_condition(h, prof):
    """Every F in h with F(R_J) <= R^{n-1} must preserve R^{n-1}."""
    n = h.n
    s = _preimage(h.span.rows, prof.RJ.basis, _hyperplane(n))
    return all(all(x == 0 for x in f.data[n - 1][: n - 1]) for f in _mats_of(s, n))


def _rule_k1_zero(h, prof):
    if first_prolongation(h).dim != 0:
        return None
    n = h.n
    vecs = []
    if prof.h1 == prof.h1_inv:
        vecs.extend(list(characteristic_subalgebra(h).basis))
    else:
        f0 = _pick_outside(prof.h1, prof.h1_inv, n)
        v0 = f0.col(n - 1)
        m = n - 1
        for flat in tableau(h).basis:
            out = [[flat[k * m + jj] - (flat[(n - 1) * m + jj] / v0[n - 1]) * v0[k] for jj in range(m)] for k in range(m)]
            vecs.append(Mat(out).flatten())
    for i in range(n - 1):
        for w in prof.W.basis:
            out = [[w[k] if jj == i else Fraction(0) for jj in range(n - 1)] for k in range(n - 1)]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs), None


def _rule_s2uv(h, prof):
    if prof.hv is None or prof.U_cal.dim == 0 or prof.hv != prof.hv_inv:
        return None
    if not _k1_matches_s2uv(h, prof.U_cal, prof.v_line.basis[0]):
        return None
    return _k_tilde_plus_sym(h, [prof.nu.col(t) for t in range(prof.nu.cols)], prof.U_cal.basis), None


def _k1_matches_s2uv(h, u_cal, v0):
    n = h.n
    v = sparse(v0)
    sym = _sym_rows(u_cal.basis, u_cal.basis, n - 1)
    vecs = [{c * n + k: x * z for c, x in row.items() for k, z in v.items()} for row in sym]
    return first_prolongation(h) == Subspace.span((n - 1) * (n - 1) * n, vecs)


def _sym_rows(xs, ys, m):
    """x_a y_b^T + x_b y_a^T for a <= b, m x m flattened, as sparse rows."""
    sx, sy = [sparse(x) for x in xs], [sparse(y) for y in ys]
    return [
        sparse_sum((i * m + j, x * y) for p, q in ((a, b), (b, a)) for i, x in sx[p].items() for j, y in sy[q].items())
        for a in range(len(sx))
        for b in range(a, len(sx))
    ]


def _k_tilde_plus_sym(h, xs, ys):
    """k~ plus x_a y_b^T + x_b y_a^T for a <= b, on the hyperplane."""
    m = h.n - 1
    return Subspace.span(m * m, [*characteristic_subalgebra(h).rows, *_sym_rows(xs, ys, m)])


def _rule_sp_full(h, prof):
    """The full standard symplectic algebra: F equals the characteristic
    subalgebra (the block form [[A, 0], [w^t, a]] with A symplectic)."""
    m, odd = divmod(h.n, 2)
    if odd or h.structures.get("omega") != standard_omega(h.n) or not h.preserves("omega"):
        return None
    if h.span.dim != m * (2 * m + 1):  # a subspace of sp(omega0) this large is all of it
        return None
    return characteristic_subalgebra(h), None


def _k_tilde_plus_s2u(h, g, u_basis):
    """k~ plus u_a x g(u_b, .) + u_b x g(u_a, .) on the hyperplane, u_a, u_b in u_basis."""
    n = h.n
    return _k_tilde_plus_sym(h, u_basis, [g.matvec(tuple(u) + (Fraction(0),))[: n - 1] for u in u_basis])


def _rule_nondeg_metric(h, prof):
    if prof.N is None or prof.degenerate:
        return None
    n = h.n
    v0 = prof.N.basis[0]
    hv = _preimage(h.span.rows, [unit(n, j) for j in range(n - 1)], prof.N)
    u = Subspace.span(n - 1, [f.matvec(v0)[: n - 1] for f in _mats_of(hv, n)])
    return _k_tilde_plus_s2u(h, h.structures["g"], u.basis), None


def _rule_unitary(h, prof):
    if prof.Jh is None or prof.N is None:
        return None
    g, j = h.structures["g"], h.structures["J"]
    n = h.n
    vecs = list(characteristic_subalgebra(h).basis)
    # (a, b) = (v0, J v0) on a non-degenerate hyperplane, (J v0, v0) on a
    # degenerate one, each with its own v0
    if not prof.degenerate:
        perp_in_hyper = orthogonal_complement(g, prof.RJ).intersect(_hyperplane(n))
        v0 = next(b for b in perp_in_hyper.basis if not prof.RJ.contains(b))
        a, b = v0, j.matvec(v0)
    else:
        v0 = prof.N.basis[0]
        a, b = j.matvec(v0), v0
    ga, gb = g.matvec(a), g.matvec(b)
    # a (x) g(b) - b (x) g(a); if h holds it, a (x) g(a) on the hyperplane joins F
    if h.contains(Mat([[gb[jj] * a[k] - ga[jj] * b[k] for jj in range(n)] for k in range(n)])):
        vecs.append(Mat([[ga[jj] * a[k] for jj in range(n - 1)] for k in range(n - 1)]).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs), None


def _rule_deg_metric(h, prof):
    if not prof.degenerate or prof.h_perp != prof.h_perp_inv:
        return None
    return _k_tilde_plus_s2u(h, h.structures["g"], prof.U_tilde.basis), None


RULES = [
    ("complex", _rule_complex),
    ("commuting-endo", _rule_commuting_endo),
    ("totally-real", _rule_totally_real),
    ("K1-zero", _rule_k1_zero),
    ("S2Uv", _rule_s2uv),
    ("sp-full", _rule_sp_full),
    ("nondeg-metric", _rule_nondeg_metric),
    ("unitary", _rule_unitary),
    ("deg-metric", _rule_deg_metric),
]


def _fired(h):
    """(label, F, tag) for each rule that fires, in RULES order; each
    group of h's profile is built at most once, when a rule first reads it."""
    prof = profile(h)
    for label, rule in RULES:
        out = rule(h, prof)
        if out is not None:
            yield (label, *out)


def applicable_rules(h):
    return [(label, sub) for label, sub, _ in _fired(h)]


def closed_form_F(h: LinearSubalgebra):
    """First closed-form rule that fires, with its label; raises otherwise."""
    for label, sub, tag in _fired(h):
        return sub, f"{label}-{tag}" if tag else label
    raise NoRuleApplies(h.name or "subalgebra")


def crosscheck(h: LinearSubalgebra):
    """Evaluate every applicable closed form against the generic engine."""
    engine = obstruction_space(h)
    rules = []
    for label, sub, _ in _fired(h):
        rules.append(
            {
                "rule": label,
                "dim": sub.dim,
                "equal": sub == engine,
                "basis": sub.basis,
            }
        )
    return {
        "name": h.name,
        "engine_dim": engine.dim,
        "engine_basis": engine.basis,
        "rules": rules,
        "all_equal": all(r["equal"] for r in rules),
        "any_rule": bool(rules),
    }
