"""Closed-form obstruction-space formulas and the structural data they need.

Each closed-form rule carries its own guard (complex, commuting
endomorphism, totally real by type, vanishing first prolongation,
S^2 U x v prolongation shape, metric non-degenerate/degenerate,
unitary).  ``crosscheck`` evaluates every rule whose guard fires and
compares the result with the generic engine; a mismatch is reported,
never swallowed.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import LinearSubalgebra, MetricContext, bracket, is_degenerate, orthogonal_complement
from .engine import characteristic_subalgebra, first_prolongation, obstruction_space, tableau
from .linalg import LinMap, Mat, Subspace, image_on_kernel, kernel, solve_affine


class NoRuleApplies(ValueError):
    """No closed-form theorem covers this subalgebra; use the generic engine."""


def _sub_with_conditions(h: LinearSubalgebra, conds):
    """A basis of the elements of h on which every linear functional in conds vanishes."""
    n = h.n
    pairs = (([cond(b) for cond in conds], b.flatten()) for b in h.basis)
    return [Mat.unflatten(n, n, flat) for flat in image_on_kernel(len(conds), n * n, pairs).basis]


def _column_kill_conditions(vectors, n):
    """Functionals F -> (F x)_k for x in vectors, all k."""
    conds = []
    for x in vectors:
        for k in range(n):
            conds.append(lambda f, x=tuple(x), k=k: f.matvec(x)[k])
    return conds


def _into_subspace_conditions(vectors, target: Subspace, n):
    """Functionals forcing F x into target, for x in vectors."""
    ann = _annihilator_rows(target)
    conds = []
    for x in vectors:
        for a in ann:
            conds.append(
                lambda f, x=tuple(x), a=a: sum(ai * fi for ai, fi in zip(a, f.matvec(x)))
            )
    return conds


def _annihilator_rows(s: Subspace):
    if s.dim == 0:
        return [tuple(Fraction(1 if i == j else 0) for i in range(s.ambient_dim)) for j in range(s.ambient_dim)]
    return list(kernel(Mat([list(b) for b in s.basis], s.dim, s.ambient_dim)).basis)


def _hyperplane(n) -> Subspace:
    return Subspace.span(n, [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n - 1)])


def _basis_vectors(n):
    return [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]


def _span_mats(mats, n) -> Subspace:
    return Subspace.span(n * n, [m.flatten() for m in mats])


class StructuralProfile:
    """The subspaces h_1, W, the h_2 chain, h_v with U and nu, and the
    degenerate-metric family, each in canonical form (None when the
    needed structure is absent)."""

    __slots__ = (
        "h1", "h1_inv", "W",
        "RJ", "h2", "h2_inv", "h2_J",
        "v_line", "hv", "hv_inv", "U_cal", "nu",
        "h_perp", "h_perp_inv", "U_tilde",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw.get(name))

    def __setattr__(self, *a):
        raise AttributeError("StructuralProfile is immutable")


def profile(h: LinearSubalgebra, require=()) -> StructuralProfile:
    """Assemble the structural subspaces of h.

    require may list 'J' or 'g'; missing required structures raise.
    """
    for key in require:
        if key not in h.structures:
            raise KeyError(f"profile requires attached structure {key!r}")
    n = h.n
    ee = _basis_vectors(n)
    hyper = ee[: n - 1]

    h1_mats = _sub_with_conditions(h, _column_kill_conditions(hyper, n))
    h1 = _span_mats(h1_mats, n)
    h1_span = LinearSubalgebra(n, h1_mats, name="h1", validate=False)
    h1_inv_mats = _sub_with_conditions(
        h1_span, [lambda f: f.data[n - 1][n - 1]]
    )
    h1_inv = _span_mats(h1_inv_mats, n)
    w = Subspace.span(n - 1, [f.col(n - 1)[: n - 1] for f in h1_inv_mats])

    fields = {"h1": h1, "h1_inv": h1_inv, "W": w}

    j = h.structures.get("J")
    if j is not None:
        rj = _hyperplane(n).intersect(Subspace.span(n, [j.matvec(x) for x in hyper]))
        h2_mats = _sub_with_conditions(h, _column_kill_conditions([list(b) for b in rj.basis], n))
        h2_span = LinearSubalgebra(n, h2_mats, name="h2", validate=False)
        h2_inv_mats = _sub_with_conditions(
            h2_span, [lambda f, jcol=jcol: f.data[n - 1][jcol] for jcol in range(n - 1)]
        )
        h2_J_mats = _sub_with_conditions(h2_span, _into_subspace_conditions(hyper, rj, n))
        fields.update(
            RJ=rj,
            h2=_span_mats(h2_mats, n),
            h2_inv=_span_mats(h2_inv_mats, n),
            h2_J=_span_mats(h2_J_mats, n),
        )

    v_info = _detect_line_prolongation(h)
    if v_info is not None:
        v0 = v_info
        hv_mats = _sub_with_conditions(
            h, _into_subspace_conditions(hyper, Subspace.span(n, [v0]), n)
        )
        hv_span = LinearSubalgebra(n, hv_mats, name="hv", validate=False)
        hv_inv_mats = _sub_with_conditions(
            hv_span, [lambda f, v0=v0: f.matvec(v0)[n - 1]]
        )
        u_rows = []
        for f in hv_mats:
            u_rows.append(tuple(f.matvec(x)[n - 1] / v0[n - 1] for x in hyper))
        u_cal = Subspace.span(n - 1, u_rows)
        nu = _nu_map(h, u_cal, v0)
        fields.update(
            v_line=Subspace.span(n, [v0]),
            hv=_span_mats(hv_mats, n),
            hv_inv=_span_mats(hv_inv_mats, n),
            U_cal=u_cal,
            nu=nu,
        )

    g = h.structures.get("g")
    if g is not None:
        ctx = MetricContext(g)
        perp = orthogonal_complement(ctx, _hyperplane(n))
        h_perp_mats = _sub_with_conditions(h, _into_subspace_conditions(hyper, perp, n))
        hp_span = LinearSubalgebra(n, h_perp_mats, name="h_perp", validate=False)
        h_perp_inv_mats = _sub_with_conditions(
            hp_span, [lambda f, jcol=jcol: f.data[n - 1][jcol] for jcol in range(n)]
        )
        u_tilde = Subspace.span(
            n - 1, [f.col(jcol)[: n - 1] for f in h_perp_inv_mats for jcol in range(n)]
        )
        fields.update(
            h_perp=_span_mats(h_perp_mats, n),
            h_perp_inv=_span_mats(h_perp_inv_mats, n),
            U_tilde=u_tilde,
        )

    return StructuralProfile(**fields)


def _detect_line_prolongation(h):
    """If all K^(1) values lie on one line through v outside R^{n-1}, return v."""
    n = h.n
    k1 = first_prolongation(h)
    if k1.dim == 0:
        return None
    m = n - 1
    values = []
    for flat in k1.basis:
        for i in range(m):
            for jj in range(m):
                val = tuple(flat[i * m * n + jj * n + k] for k in range(n))
                if any(x != 0 for x in val):
                    values.append(val)
    line = Subspace.span(n, values)
    if line.dim != 1:
        return None
    v0 = line.basis[0]
    if v0[n - 1] == 0:
        return None
    return v0


def _nu_map(h, u_cal, v0):
    """nu on U, pinned by F = alpha x v - beta x nu(alpha) for F in h_v."""
    n = h.n
    ee = _basis_vectors(n)
    cols = []
    for alpha in u_cal.basis:
        rows, rhs = [], []
        for jcol in range(n - 1):
            for k in range(n):
                rows.append([b.data[k][jcol] for b in h.basis])
                rhs.append(alpha[jcol] * v0[k])
        sol = solve_affine(rows, rhs)
        if sol is None:
            raise AssertionError("U was not computed from h_v")
        f = h.element(sol)
        # e_n = u0 + v0 / v0[n-1] with u0 in the hyperplane
        c = Fraction(1) / v0[n - 1]
        u0 = tuple(ee[n - 1][i] - c * v0[i] for i in range(n))
        alpha_u0 = sum(alpha[i] * u0[i] for i in range(n - 1))
        fen = f.col(n - 1)
        nu_vec = tuple(v0[n - 1] * (alpha_u0 * v0[k] - fen[k]) for k in range(n - 1))
        cols.append(nu_vec)
    if not cols:
        return LinMap(Mat.zeros(n - 1, 0), 0, n - 1)
    return LinMap(Mat([[col[r] for col in cols] for r in range(n - 1)]), len(cols), n - 1)


def totally_real_type(h: LinearSubalgebra, j: Mat | None = None):
    """Type tag (I-IV) and the witnesses the closed-form theorem needs."""
    j = j if j is not None else h.structures.get("J")
    if j is None:
        raise KeyError("totally real typing needs a complex structure J")
    n = h.n
    jh = Subspace.span(n * n, [(j * b).flatten() for b in h.basis])
    if h.span.intersect(jh).dim != 0:
        raise ValueError("subalgebra is not totally real: h meets Jh")
    prof = profile(h)
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
    ee = _basis_vectors(n)
    rj = prof.RJ
    v_in_hyper = next(x for x in ee[: n - 1] if not rj.contains(x))
    if tag == "III":
        f = _pick_outside(h, prof.h2, prof.h2_inv, n)
        fv = f.matvec(v_in_hyper)
        jfv = j.matvec(fv)
        lam = jfv[n - 1] / fv[n - 1]
        witnesses.update(F=f, lam=lam)
    if tag == "IV":
        f1 = _pick_outside(h, prof.h2_inv, prof.h2_J, n)
        f2p = _pick_outside(h, prof.h2, prof.h2_inv, n)
        jf1v = j.matvec(f1.matvec(v_in_hyper))
        jf2pv = j.matvec(f2p.matvec(v_in_hyper))
        lam = jf2pv[n - 1] / jf1v[n - 1]
        f2 = f2p - f1.scale(lam)
        mu = f2.matvec(v_in_hyper)[n - 1] / jf1v[n - 1]
        witnesses.update(F1=f1.scale(mu), F2=f2)
    return tag, witnesses


def _pick_outside(h, big: Subspace, small: Subspace, n):
    """A matrix spanning big over small (both given as flattened spans)."""
    for flat in big.basis:
        if not small.contains(flat):
            return Mat.unflatten(n, n, flat)
    raise AssertionError("spaces were equal")


def _mats_of(span: Subspace, n):
    return [Mat.unflatten(n, n, flat) for flat in span.basis]


# ---------------------------------------------------------------------------
# closed-form rules


def _rule_complex(h):
    j = h.structures.get("J")
    if j is None:
        return None
    if any(not bracket(b, j).is_zero() for b in h.basis):
        return None
    jh = Subspace.span(h.n * h.n, [(j * b).flatten() for b in h.basis])
    if jh != h.span:
        return None
    return {"A": j}


def _value_char(h, ctx):
    return characteristic_subalgebra(h)


def _rule_commuting_endo(h):
    n = h.n
    candidates = []
    for key in ("product", "tangent"):
        if key in h.structures:
            candidates.append(h.structures[key])
    if "hpc" in h.structures:
        candidates.extend(h.structures["hpc"])
    if "hypercomplex" in h.structures:
        candidates.extend(h.structures["hypercomplex"])
    ee = _basis_vectors(n)
    for a in candidates:
        if any(not bracket(b, a).is_zero() for b in h.basis):
            continue
        if all(a.matvec(x)[n - 1] == 0 for x in ee[: n - 1]):
            continue  # hyperplane is A-invariant
        ah = Subspace.span(n * n, [(a * b).flatten() for b in h.basis])
        if h.span.contains_space(ah):
            return {"A": a}
    return None


def _rule_totally_real(h):
    j = h.structures.get("J")
    if j is None:
        return None
    if any(not bracket(b, j).is_zero() for b in h.basis):
        return None
    jh = Subspace.span(h.n * h.n, [(j * b).flatten() for b in h.basis])
    if h.span.intersect(jh).dim != 0:
        return None
    tag, wit = totally_real_type(h, j)
    if tag == "II" and not _type_II_extra_condition(h):
        return None
    return {"tag": tag, "witnesses": wit, "J": j}


def _type_II_extra_condition(h):
    """Every F in h with F(R_J) <= R^{n-1} must preserve R^{n-1}."""
    n = h.n
    prof = profile(h)
    rj = prof.RJ
    conds = []
    for b in rj.basis:
        conds.append(lambda f, b=tuple(b): f.matvec(b)[n - 1])
    s_mats = _sub_with_conditions(h, conds)
    return all(all(f.data[n - 1][jj] == 0 for jj in range(n - 1)) for f in s_mats)


def _value_totally_real(h, ctx):
    n = h.n
    j = ctx["J"]
    prof = profile(h)
    base = [Mat.unflatten(n - 1, n - 1, flat) for flat in characteristic_subalgebra(h).basis]
    extra = []
    for f in _mats_of(prof.h2_J, n):
        extra.append((j * f).submatrix(range(n - 1), range(n - 1)))
    tag = ctx["tag"]
    wit = ctx["witnesses"]
    if tag == "III":
        f, lam = wit["F"], wit["lam"]
        extra.append((j * f - f.scale(lam)).submatrix(range(n - 1), range(n - 1)))
    if tag == "IV":
        f1, f2 = wit["F1"], wit["F2"]
        extra.append((f2 - j * f1).submatrix(range(n - 1), range(n - 1)))
        extra.append((j * f2).submatrix(range(n - 1), range(n - 1)))
    return Subspace.span(
        (n - 1) * (n - 1), [m.flatten() for m in base] + [m.flatten() for m in extra]
    )


def _rule_k1_zero(h):
    if first_prolongation(h).dim != 0:
        return None
    return {}


def _value_k1_zero(h, ctx):
    n = h.n
    prof = profile(h)
    vecs = []
    if prof.h1 == prof.h1_inv:
        vecs.extend(list(characteristic_subalgebra(h).basis))
    else:
        f0 = _pick_outside(h, prof.h1, prof.h1_inv, n)
        v0 = f0.col(n - 1)
        m = n - 1
        for flat in tableau(h).basis:
            out = [[flat[k * m + jj] - (flat[(n - 1) * m + jj] / v0[n - 1]) * v0[k] for jj in range(m)] for k in range(m)]
            vecs.append(Mat(out).flatten())
    for i in range(n - 1):
        for w in prof.W.basis:
            out = [[w[k] if jj == i else Fraction(0) for jj in range(n - 1)] for k in range(n - 1)]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs)


def _rule_s2uv(h):
    n = h.n
    prof = profile(h)
    if prof.hv is None or prof.U_cal is None or prof.U_cal.dim == 0:
        return None
    if prof.hv != prof.hv_inv:
        return None
    v0 = prof.v_line.basis[0]
    if not _k1_matches_s2uv(h, prof.U_cal, v0):
        return None
    return {"profile": prof}


def _k1_matches_s2uv(h, u_cal, v0):
    n = h.n
    m = n - 1
    vecs = []
    ub = list(u_cal.basis)
    for a in range(len(ub)):
        for b in range(a, len(ub)):
            flat = [Fraction(0)] * (m * m * n)
            for i in range(m):
                for jj in range(m):
                    c = ub[a][i] * ub[b][jj] + ub[b][i] * ub[a][jj]
                    if c != 0:
                        for k in range(n):
                            flat[i * m * n + jj * n + k] += c * v0[k]
            vecs.append(flat)
    return first_prolongation(h) == Subspace.span(m * m * n, vecs)


def _value_s2uv(h, ctx):
    n = h.n
    prof = ctx["profile"]
    nu_cols = [prof.nu.matrix.col(t) for t in range(prof.nu.domain_dim)]
    ub = list(prof.U_cal.basis)
    vecs = list(characteristic_subalgebra(h).basis)
    for a in range(len(ub)):
        for b in range(a, len(ub)):
            out = [
                [ub[b][jj] * nu_cols[a][k] + ub[a][jj] * nu_cols[b][k] for jj in range(n - 1)]
                for k in range(n - 1)
            ]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs)


def _rule_sp_full(h):
    """The full standard symplectic algebra: F equals the characteristic
    subalgebra (the block form [[A, 0], [w^t, a]] with A symplectic)."""
    omega = h.structures.get("omega")
    if omega is None or h.n % 2:
        return None
    from .builders import standard_omega

    if omega != standard_omega(h.n):
        return None
    full = _span_mats(
        _sub_with_conditions_gl(h.n, omega), h.n
    )
    if h.span != full:
        return None
    return {}


def _sub_with_conditions_gl(n, omega):
    from .algebras import solve_matrix_space

    return solve_matrix_space(n, [lambda f, om=omega: om * f + f.transpose() * om])


def _rule_nondeg_metric(h):
    g = h.structures.get("g")
    if g is None:
        return None
    ctx = MetricContext(g)
    hyper = _hyperplane(h.n)
    if is_degenerate(ctx, hyper):
        return None
    return {"ctx": ctx}


def _value_nondeg_metric(h, rctx):
    n = h.n
    ctx = rctx["ctx"]
    hyper = _hyperplane(n)
    v0 = orthogonal_complement(ctx, hyper).basis[0]
    hv_mats = _sub_with_conditions(
        h, _into_subspace_conditions(_basis_vectors(n)[: n - 1], Subspace.span(n, [v0]), n)
    )
    u_vecs = [f.matvec(v0)[: n - 1] for f in hv_mats]
    u_basis = [list(b) for b in Subspace.span(n - 1, u_vecs).basis]
    vecs = list(characteristic_subalgebra(h).basis)
    for a in range(len(u_basis)):
        for b in range(a, len(u_basis)):
            ua, ubv = u_basis[a], u_basis[b]
            fa = ctx.g.matvec(tuple(ua) + (Fraction(0),))[: n - 1]
            fb = ctx.g.matvec(tuple(ubv) + (Fraction(0),))[: n - 1]
            out = [[fb[jj] * ua[k] + fa[jj] * ubv[k] for jj in range(n - 1)] for k in range(n - 1)]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs)


def _rule_unitary(h):
    g = h.structures.get("g")
    j = h.structures.get("J")
    if g is None or j is None:
        return None
    n = h.n
    for b in h.basis:
        if not bracket(b, j).is_zero():
            return None
        if not (g * b + b.transpose() * g).is_zero():
            return None
    return {"ctx": MetricContext(g), "J": j}


def _value_unitary(h, rctx):
    n = h.n
    ctx, j = rctx["ctx"], rctx["J"]
    hyper = _hyperplane(n)
    kchar = characteristic_subalgebra(h)
    vecs = list(kchar.basis)
    if not is_degenerate(ctx, hyper):
        ee = _basis_vectors(n)
        rj = hyper.intersect(Subspace.span(n, [j.matvec(x) for x in ee[: n - 1]]))
        rows = [list(ctx.g.matvec(b)) for b in rj.basis]
        perp_in_hyper = kernel(Mat(rows, len(rows), n)).intersect(hyper)
        v0 = next(b for b in perp_in_hyper.basis if not rj.contains(b))
        jv = j.matvec(v0)
        gv = ctx.g.matvec(v0)
        gjv = ctx.g.matvec(jv)
        test = Mat([[gjv[jj] * v0[k] - gv[jj] * jv[k] for jj in range(n)] for k in range(n)])
        if h.contains(test):
            extra = Mat([[gv[jj] * v0[k] for jj in range(n - 1)] for k in range(n - 1)])
            vecs.append(extra.flatten())
    else:
        v0 = orthogonal_complement(ctx, hyper).basis[0]
        jv = j.matvec(v0)
        gv = ctx.g.matvec(v0)
        gjv = ctx.g.matvec(jv)
        test = Mat([[gv[jj] * jv[k] - gjv[jj] * v0[k] for jj in range(n)] for k in range(n)])
        if h.contains(test):
            extra = Mat([[gjv[jj] * jv[k] for jj in range(n - 1)] for k in range(n - 1)])
            vecs.append(extra.flatten())
    return Subspace.span((n - 1) * (n - 1), vecs)


def _rule_deg_metric(h):
    g = h.structures.get("g")
    if g is None:
        return None
    ctx = MetricContext(g)
    if not is_degenerate(ctx, _hyperplane(h.n)):
        return None
    prof = profile(h)
    if prof.h_perp != prof.h_perp_inv:
        return None
    return {"ctx": ctx, "profile": prof}


def _value_deg_metric(h, rctx):
    n = h.n
    ctx, prof = rctx["ctx"], rctx["profile"]
    u_basis = [list(b) for b in prof.U_tilde.basis]
    vecs = list(characteristic_subalgebra(h).basis)
    for a in range(len(u_basis)):
        for b in range(a, len(u_basis)):
            ua, ubv = u_basis[a], u_basis[b]
            fa = ctx.g.matvec(tuple(ua) + (Fraction(0),))[: n - 1]
            fb = ctx.g.matvec(tuple(ubv) + (Fraction(0),))[: n - 1]
            out = [[fb[jj] * ua[k] + fa[jj] * ubv[k] for jj in range(n - 1)] for k in range(n - 1)]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs)


RULES = [
    ("complex", _rule_complex, _value_char),
    ("commuting-endo", _rule_commuting_endo, _value_char),
    ("totally-real", _rule_totally_real, _value_totally_real),
    ("K1-zero", _rule_k1_zero, _value_k1_zero),
    ("S2Uv", _rule_s2uv, _value_s2uv),
    ("sp-full", _rule_sp_full, _value_char),
    ("nondeg-metric", _rule_nondeg_metric, _value_nondeg_metric),
    ("unitary", _rule_unitary, _value_unitary),
    ("deg-metric", _rule_deg_metric, _value_deg_metric),
]


def applicable_rules(h):
    out = []
    for label, guard, value in RULES:
        ctx = guard(h)
        if ctx is not None:
            out.append((label, value(h, ctx)))
    return out


def closed_form_F(h: LinearSubalgebra):
    """First closed-form rule that fires, with its label; raises otherwise."""
    for label, guard, value in RULES:
        ctx = guard(h)
        if ctx is not None:
            sub = value(h, ctx)
            if label == "totally-real":
                label = f"totally-real-{ctx['tag']}"
            return sub, label
    raise NoRuleApplies(h.name or "subalgebra")


def crosscheck(h: LinearSubalgebra):
    """Evaluate every applicable closed form against the generic engine."""
    engine = obstruction_space(h)
    rules = []
    for label, sub in applicable_rules(h):
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
