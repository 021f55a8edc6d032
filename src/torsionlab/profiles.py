"""Closed-form obstruction-space formulas and the structural data they need.

Each closed-form rule tests its own hypothesis (complex, commuting
endomorphism, totally real by type, vanishing first prolongation,
S^2 U x v prolongation shape, metric non-degenerate/degenerate,
unitary) and, when it holds, returns its formula for F.  ``crosscheck``
evaluates every rule that fires and compares the result with the
generic engine; a mismatch is reported, never swallowed.

Every subspace of the structural profile is a preimage
{F in h : F x in T for every x in X}, computed by ``_preimage``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebras import LinearSubalgebra, MetricContext, bracket, is_degenerate, orthogonal_complement
from .builders import build_sp, standard_omega
from .engine import characteristic_subalgebra, first_prolongation, obstruction_space, tableau
from .linalg import LinMap, Mat, Subspace, image_on_kernel, kernel, solve_affine


class NoRuleApplies(ValueError):
    """No closed-form theorem covers this subalgebra; use the generic engine."""


def _preimage(mats, vectors, target: Subspace) -> Subspace:
    """{F in span(mats) : F x in target for every x in vectors}, flattened.

    F x is computed once per basis element and vector; pairing it with
    the rows of target's annihilator gives the conditions that
    image_on_kernel kills.
    """
    n = target.ambient_dim
    ann = kernel(Mat([list(b) for b in target.basis], target.dim, n)).basis

    def conditions(f):
        images = [f.matvec(x) for x in vectors]
        return [sum(a * y for a, y in zip(row, fx) if a) for fx in images for row in ann]

    pairs = ((conditions(f), f.flatten()) for f in mats)
    return image_on_kernel(len(vectors) * len(ann), n * n, pairs)


def _hyperplane(n) -> Subspace:
    return Subspace.span(n, _basis_vectors(n)[: n - 1])


def _basis_vectors(n):
    return [tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)]


def _mats_of(span: Subspace, n):
    return [Mat.unflatten(n, n, flat) for flat in span.basis]


def _left_span(a: Mat, h: LinearSubalgebra) -> Subspace:
    """The span of a b for b in h, flattened."""
    return Subspace.span(h.n * h.n, [(a * b).flatten() for b in h.basis])


def _commutes(h: LinearSubalgebra, a: Mat) -> bool:
    return all(bracket(b, a).is_zero() for b in h.basis)


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
    hyperplane = _hyperplane(n)

    h1 = _preimage(h.basis, hyper, Subspace.zero(n))
    h1_inv = _preimage(_mats_of(h1, n), ee[n - 1 :], hyperplane)
    w = Subspace.span(n - 1, [f.col(n - 1)[: n - 1] for f in _mats_of(h1_inv, n)])
    fields = {"h1": h1, "h1_inv": h1_inv, "W": w}

    j = h.structures.get("J")
    if j is not None:
        rj = hyperplane.intersect(Subspace.span(n, [j.matvec(x) for x in hyper]))
        h2 = _preimage(h.basis, rj.basis, Subspace.zero(n))
        h2_mats = _mats_of(h2, n)
        fields.update(
            RJ=rj,
            h2=h2,
            h2_inv=_preimage(h2_mats, hyper, hyperplane),
            h2_J=_preimage(h2_mats, hyper, rj),
        )

    v0 = _detect_line_prolongation(h)
    if v0 is not None:
        v_line = Subspace.span(n, [v0])
        hv = _preimage(h.basis, hyper, v_line)
        hv_mats = _mats_of(hv, n)
        u_cal = Subspace.span(n - 1, [tuple(y / v0[n - 1] for y in f.data[n - 1][: n - 1]) for f in hv_mats])
        fields.update(
            v_line=v_line,
            hv=hv,
            hv_inv=_preimage(hv_mats, [v0], hyperplane),
            U_cal=u_cal,
            nu=_nu_map(h, u_cal, v0),
        )

    g = h.structures.get("g")
    if g is not None:
        perp = orthogonal_complement(MetricContext(g), hyperplane)
        h_perp = _preimage(h.basis, hyper, perp)
        h_perp_inv = _preimage(_mats_of(h_perp, n), ee, hyperplane)
        u_tilde = Subspace.span(
            n - 1, [f.col(jcol)[: n - 1] for f in _mats_of(h_perp_inv, n) for jcol in range(n)]
        )
        fields.update(h_perp=h_perp, h_perp_inv=h_perp_inv, U_tilde=u_tilde)

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
    if h.span.intersect(_left_span(j, h)).dim != 0:
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
    v_in_hyper = next(x for x in _basis_vectors(n)[: n - 1] if not prof.RJ.contains(x))
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
# else (F, tag); prof() builds profile(h) on first use.


def _rule_complex(h, prof):
    j = h.structures.get("J")
    if j is None or not _commutes(h, j) or _left_span(j, h) != h.span:
        return None
    return characteristic_subalgebra(h), None


def _rule_commuting_endo(h, prof):
    n = h.n
    structures = h.structures
    candidates = [structures[key] for key in ("product", "tangent") if key in structures]
    candidates += [*structures.get("hpc", ()), *structures.get("hypercomplex", ())]
    for a in candidates:
        if not _commutes(h, a):
            continue
        if all(x == 0 for x in a.data[n - 1][: n - 1]):
            continue  # hyperplane is A-invariant
        if h.span.contains_space(_left_span(a, h)):
            return characteristic_subalgebra(h), None
    return None


def _rule_totally_real(h, prof):
    j = h.structures.get("J")
    if j is None or not _commutes(h, j) or h.span.intersect(_left_span(j, h)).dim != 0:
        return None
    tag, wit = _totally_real_type(h, j, prof())
    if tag == "II" and not _type_II_extra_condition(h, prof()):
        return None
    n = h.n
    hyper = range(n - 1)
    extra = [(j * f).submatrix(hyper, hyper) for f in _mats_of(prof().h2_J, n)]
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
    s = _preimage(h.basis, prof.RJ.basis, _hyperplane(n))
    return all(all(x == 0 for x in f.data[n - 1][: n - 1]) for f in _mats_of(s, n))


def _rule_k1_zero(h, prof):
    if first_prolongation(h).dim != 0:
        return None
    n = h.n
    p = prof()
    vecs = []
    if p.h1 == p.h1_inv:
        vecs.extend(list(characteristic_subalgebra(h).basis))
    else:
        f0 = _pick_outside(p.h1, p.h1_inv, n)
        v0 = f0.col(n - 1)
        m = n - 1
        for flat in tableau(h).basis:
            out = [[flat[k * m + jj] - (flat[(n - 1) * m + jj] / v0[n - 1]) * v0[k] for jj in range(m)] for k in range(m)]
            vecs.append(Mat(out).flatten())
    for i in range(n - 1):
        for w in p.W.basis:
            out = [[w[k] if jj == i else Fraction(0) for jj in range(n - 1)] for k in range(n - 1)]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs), None


def _rule_s2uv(h, prof):
    n = h.n
    p = prof()
    if p.hv is None or p.U_cal.dim == 0 or p.hv != p.hv_inv:
        return None
    if not _k1_matches_s2uv(h, p.U_cal, p.v_line.basis[0]):
        return None
    nu_cols = [p.nu.matrix.col(t) for t in range(p.nu.domain_dim)]
    ub = list(p.U_cal.basis)
    vecs = list(characteristic_subalgebra(h).basis)
    for a in range(len(ub)):
        for b in range(a, len(ub)):
            out = [
                [ub[b][jj] * nu_cols[a][k] + ub[a][jj] * nu_cols[b][k] for jj in range(n - 1)]
                for k in range(n - 1)
            ]
            vecs.append(Mat(out).flatten())
    return Subspace.span((n - 1) * (n - 1), vecs), None


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


def _rule_sp_full(h, prof):
    """The full standard symplectic algebra: F equals the characteristic
    subalgebra (the block form [[A, 0], [w^t, a]] with A symplectic)."""
    omega = h.structures.get("omega")
    if omega is None or h.n % 2 or omega != standard_omega(h.n) or h.span != build_sp(h.n // 2).span:
        return None
    return characteristic_subalgebra(h), None


def _k_tilde_plus_s2u_flat(h, g, u_basis):
    """k~ plus u_a x g(u_b, .) + u_b x g(u_a, .) on the hyperplane, u_a, u_b in u_basis."""
    n = h.n
    flats = [g.matvec(tuple(u) + (Fraction(0),))[: n - 1] for u in u_basis]
    vecs = list(characteristic_subalgebra(h).basis)
    for a in range(len(u_basis)):
        for b in range(a, len(u_basis)):
            ua, ub, fa, fb = u_basis[a], u_basis[b], flats[a], flats[b]
            vecs.append(tuple(fb[jj] * ua[k] + fa[jj] * ub[k] for k in range(n - 1) for jj in range(n - 1)))
    return Subspace.span((n - 1) * (n - 1), vecs)


def _rule_nondeg_metric(h, prof):
    g = h.structures.get("g")
    if g is None:
        return None
    n = h.n
    ctx = MetricContext(g)
    hyperplane = _hyperplane(n)
    if is_degenerate(ctx, hyperplane):
        return None
    v0 = orthogonal_complement(ctx, hyperplane).basis[0]
    hv = _preimage(h.basis, _basis_vectors(n)[: n - 1], Subspace.span(n, [v0]))
    u = Subspace.span(n - 1, [f.matvec(v0)[: n - 1] for f in _mats_of(hv, n)])
    return _k_tilde_plus_s2u_flat(h, g, u.basis), None


def _rule_unitary(h, prof):
    g = h.structures.get("g")
    j = h.structures.get("J")
    if g is None or j is None or not _commutes(h, j):
        return None
    if any(not (g * b + b.transpose() * g).is_zero() for b in h.basis):
        return None
    n = h.n
    ctx = MetricContext(g)
    hyper = _hyperplane(n)
    vecs = list(characteristic_subalgebra(h).basis)
    if not is_degenerate(ctx, hyper):
        rj = hyper.intersect(Subspace.span(n, [j.matvec(x) for x in _basis_vectors(n)[: n - 1]]))
        rows = [list(g.matvec(b)) for b in rj.basis]
        perp_in_hyper = kernel(Mat(rows, len(rows), n)).intersect(hyper)
        v0 = next(b for b in perp_in_hyper.basis if not rj.contains(b))
        jv = j.matvec(v0)
        gv = g.matvec(v0)
        gjv = g.matvec(jv)
        test = Mat([[gjv[jj] * v0[k] - gv[jj] * jv[k] for jj in range(n)] for k in range(n)])
        if h.contains(test):
            extra = Mat([[gv[jj] * v0[k] for jj in range(n - 1)] for k in range(n - 1)])
            vecs.append(extra.flatten())
    else:
        v0 = orthogonal_complement(ctx, hyper).basis[0]
        jv = j.matvec(v0)
        gv = g.matvec(v0)
        gjv = g.matvec(jv)
        test = Mat([[gv[jj] * jv[k] - gjv[jj] * v0[k] for jj in range(n)] for k in range(n)])
        if h.contains(test):
            extra = Mat([[gjv[jj] * jv[k] for jj in range(n - 1)] for k in range(n - 1)])
            vecs.append(extra.flatten())
    return Subspace.span((n - 1) * (n - 1), vecs), None


def _rule_deg_metric(h, prof):
    g = h.structures.get("g")
    if g is None or not is_degenerate(MetricContext(g), _hyperplane(h.n)):
        return None
    p = prof()
    if p.h_perp != p.h_perp_inv:
        return None
    return _k_tilde_plus_s2u_flat(h, g, p.U_tilde.basis), None


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
    """(label, F, tag) for each rule that fires, in RULES order.

    profile(h) is built at most once, by the first rule that reads it.
    """
    prof = cache(lambda: profile(h))
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
