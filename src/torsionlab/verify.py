"""The full cross-verification suite over the built-in catalog.

Each check reproduces a worked example or a structural identity with
exact arithmetic and compares closed forms against the generic engine.
The CLI `verify-paper` command and the acceptance test module both run
this list; every tolerance is exact subspace or tensor equality.  The
catalog checks share each algebra's profile, which ``profile`` keeps on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebras import LinearSubalgebra, commutator, conjugate, left_span, orthogonal_complement, padded
from .builders import (
    build_delta_gl,
    build_gl_C,
    build_gl_H,
    build_lagrangian_symplectic,
    build_product_gl,
    build_sl_C,
    build_so,
    build_sp,
    build_sp_C,
    build_sp_H,
    build_tangent_gl,
    build_u,
    catalog,
    pair_swap_gram,
    standard_J,
)
from . import engine
from .ellipticity import classify_low_rank
from .engine import (
    AlmostAbelian,
    Certificate,
    characteristic_subalgebra,
    check_torsion_free,
    connection_space,
    curvature_tensor,
    first_prolongation,
    flat_certificate,
    nijenhuis,
    obstruction_space,
    tableau,
    torsion_tensor,
)
from .existence import (
    decide_product,
    decide_tangent,
    hpc_flatness,
    orbit_catalog,
    product_eigendims,
    product_obstruction,
    tangent_obstruction,
)
from .linalg import Mat, Subspace, entry_span, image_on_kernel, sparse_sum, unit
from .profiles import applicable_rules, crosscheck, profile


def _sp_block_pattern(m):
    """[[A, 0], [w^t, a]] with A in sp(2m-2, R), inside End(R^{2m-1})."""
    n1 = 2 * m - 1
    return entry_span(n1, lambda i, j: i == n1 - 1, extra=[padded(n1 - 1, a) for a in build_sp(m - 1).rows])


def _glC_block_pattern(m):
    """[[A, v], [0, a]] with A in gl(m-1, C), inside End(R^{2m-1})."""
    n1 = 2 * m - 1
    return entry_span(n1, lambda i, j: j == n1 - 1, extra=[padded(n1 - 1, a) for a in build_gl_C(m - 1).rows])


def _u_pattern(m):
    """k~_{u(m)} + the line through e^{2m-1} x e_{2m-1}."""
    n1 = 2 * m - 1
    return entry_span(n1, lambda i, j: i == j == n1 - 1, extra=[padded(n1 - 1, a) for a in build_u(m - 1).rows])


def _u11_diag_pattern():
    """diag(A, a) with A spanning u(1,0) = u(0,1), for u(1,1)."""
    rot = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return entry_span(3, lambda i, j: i == j == 2, extra=[rot.flatten()])


def _delta_gl_pattern(m):
    """[[A, 0, w1], [0, A, w2], [0, 0, a]] in the coordinates
    (e_1..e_{m-1}, e_{m+1}..e_{2m-1}, e_m) of the standard hyperplane."""
    tied = [((i, j), (m + i, m + j)) for i in range(m - 1) for j in range(m - 1)]
    return entry_span(2 * m - 1, lambda i, j: j == m - 1, tied)


def _end_L_pattern():
    """End_L for the Lagrangian example at m = 2: image in L, L in kernel."""
    return entry_span(4, lambda i, j: i in (0, 2) and j in (1, 3))


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def check_symplectic():
    out = []
    for m, dim in ((2, 6), (3, 15)):
        h = build_sp(m)
        fs = obstruction_space(h)
        kc = characteristic_subalgebra(h)
        pattern = _sp_block_pattern(m)
        ok = fs == kc == pattern and fs.dim == dim
        out.append(_check(f"symplectic sp({2*m},R): F = k~ = block form, dim {dim}", ok, f"dim {fs.dim}"))
    return out


def check_complex():
    out = []
    for m, dim in ((2, 5), (3, 13)):
        h = build_gl_C(m)
        fs = obstruction_space(h)
        kc = characteristic_subalgebra(h)
        ok = fs == kc == _glC_block_pattern(m) and fs.dim == dim
        out.append(_check(f"complex gl({m},C): F = k~ = block form, dim {dim}", ok, f"dim {fs.dim}"))
    h = build_sp_C(1)
    ok = obstruction_space(h) == characteristic_subalgebra(h)
    out.append(_check("complex sp(2,C): F = k~", ok, f"dim {obstruction_space(h).dim}"))
    return out


def check_unitary():
    out = []
    for m in (2, 3):
        h = build_u(m)
        fs = obstruction_space(h)
        rules = dict(applicable_rules(h))
        ok = fs == _u_pattern(m) and rules.get("unitary") == fs
        out.append(_check(f"unitary u({m}): F = k~ + <e x e> via engine and unitary rule", ok, f"dim {fs.dim}"))
    h = build_u(1, 1)
    fs = obstruction_space(h)
    rules = dict(applicable_rules(h))
    ok = fs == _u11_diag_pattern() and rules.get("unitary") == fs
    out.append(_check("unitary u(1,1), non-degenerate hyperplane: displayed diag(A, a) form", ok, f"dim {fs.dim}"))
    hg = build_u(1, 1, gram=pair_swap_gram(2))
    fsg = obstruction_space(hg)
    rulesg = dict(applicable_rules(hg))
    kcg = characteristic_subalgebra(hg)
    ok = (
        rulesg.get("unitary") == fsg
        and rulesg.get("deg-metric") == fsg
        and fsg.dim == kcg.dim + 1
        and fsg.contains_space(kcg)
    )
    out.append(_check("unitary u(1,1), degenerate hyperplane: rule matches engine, k~ + 1", ok, f"dim {fsg.dim}"))
    return out


def check_metric_full_group():
    out = []
    for n in (3, 4, 5):
        fs = obstruction_space(build_so(n))
        ok = fs == Subspace.full((n - 1) * (n - 1))
        out.append(_check(f"metric so({n}): F = End(R^{n-1})", ok, f"dim {fs.dim}"))
    for p, q in ((4, 0), (2, 2), (3, 1)):
        h = build_so(p, q) if q else build_so(p)
        k1 = first_prolongation(h)
        ok = k1.dim == 6  # n(n-1)/2 at n = 4
        out.append(_check(f"metric so({p},{q}): dim K^(1) = 6", ok, f"dim {k1.dim}"))
    return out


def check_hypercomplex():
    out = []
    for h in (build_gl_H(1), build_sp_H(1)):
        rank_report = classify_low_rank(h, 2)
        k1 = first_prolongation(h)
        fs = obstruction_space(h)
        kc = characteristic_subalgebra(h)
        ok = rank_report["status"] == "certified" and k1.dim == 0 and fs == kc
        name = f"hypercomplex {h.name}: certified super-elliptic, K^(1) = 0, F = k~"
        out.append(_check(name, ok, f"method {rank_report['method']}"))
    bare = LinearSubalgebra(4, build_sp_H(1).rows, name="sp(1)-bare", validate=False)
    res = classify_low_rank(bare, 2)
    ok = res["status"] == "certified" and res["method"] == "minor-variety-empty"
    out.append(_check("hypercomplex sp(1): exhaustive minor solve certifies no rank <= 2", ok, res["method"]))
    return out


def check_hyperparacomplex():
    out = []
    for m, dim in ((2, 4), (3, 9)):
        h = build_delta_gl(m)
        fs = obstruction_space(h)
        ok = fs == _delta_gl_pattern(m) and fs.dim == dim
        out.append(_check(f"hyperparacomplex Dgl({m},R): F = block pattern, dim {dim}", ok, f"dim {fs.dim}"))
    data = {
        "verdict": "yes_caseA",
        "A": Mat([[-1]]),
        "a": Fraction(1),
        "w1": (Fraction(-2),),
        "w2": (Fraction(0),),
        "lam": Fraction(0),
        "mu": Fraction(1),
    }
    f = Mat([[-1, 0, -2], [0, -1, 0], [0, 0, 1]])
    res = hpc_flatness(AlmostAbelian(f), data)
    ok = res["flat"] is False and res["witness"] == (Fraction(-2),) and res["expected_eigenvalue"] == 2
    out.append(_check("hyperparacomplex flatness: known non-flat example, witness -2", ok, str(res.get("witness"))))
    return out


def _engine_by_type(h, cat):
    """F of conjugate(h, T_alpha) for each orbit type [U_alpha] of the catalog."""
    return {rep["label"]: obstruction_space(conjugate(h, rep["T"])) for rep in cat.reps}


def _decider_failures(res, f, spaces, label):
    """Why a product/tangent decider answer fails: a verdict other than
    yes, or a basis S with S^-1 f S != conjugated, or conjugated outside
    the engine's F for the returned type (not the decider's pattern)."""
    if res["verdict"] != "yes":
        return [f"{label}: verdict {res['verdict']}"]
    s = res["basis"]
    if s is None:
        return []
    fp = res["conjugated"]
    space = spaces.get(res["type"])
    if s.inverse() * f * s != fp or space is None or not space.contains(fp.flatten()):
        return [f"{label}: {res['type']} basis not certified by the engine for f = {f}"]
    return []


def check_product_tangent(seed=20260808):
    out = []
    product_spaces, tangent_spaces = {}, {}
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        cat = orbit_catalog("product", n, p=p)
        spaces = product_spaces[n, p] = _engine_by_type(build_product_gl(n, p), cat)
        ok = all(product_obstruction(n, p, t) == spaces[rep["label"]] for t, rep in enumerate(cat.reps, start=1))
        invs = [product_eigendims(rep["subspace"], n, p) for rep in cat.reps]
        ok = ok and len(set(invs)) == 3
        out.append(_check(f"product patterns = engine on conjugates, (n,p)=({n},{p})", ok))
    for n in (4, 6):
        cat = orbit_catalog("tangent", n)
        spaces = tangent_spaces[n] = _engine_by_type(build_tangent_gl(n // 2), cat)
        ok = all(tangent_obstruction(n, t) == spaces[rep["label"]] for t, rep in enumerate(cat.reps, start=1))
        out.append(_check(f"tangent patterns = engine on conjugates, n={n}", ok))
    rng = random.Random(seed)
    failures = []
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        for _ in range(100):
            f = Mat([[rng.randint(-5, 5) for _ in range(n - 1)] for _ in range(n - 1)])
            res = decide_product(AlmostAbelian(f), p)
            failures += _decider_failures(res, f, product_spaces[n, p], f"product (n,p)=({n},{p})")
    out.append(_failures_check("decide_product: yes on 100 seeded random f per size", failures))
    failures = []
    for n in (4, 6):
        for _ in range(100):
            f = Mat([[rng.randint(-5, 5) for _ in range(n - 1)] for _ in range(n - 1)])
            res = decide_tangent(AlmostAbelian(f))
            failures += _decider_failures(res, f, tangent_spaces[n], f"tangent n={n}")
    out.append(_failures_check("decide_tangent: yes on 100 seeded random f per size", failures))
    return out


def check_lagrangian():
    h = build_lagrangian_symplectic(2)
    fs = obstruction_space(h)
    rules = dict(applicable_rules(h))
    ok = fs == _end_L_pattern() and fs.dim == 4 and rules.get("S2Uv") == fs
    return [_check("Lagrangian-symplectic m=2: F = End_L, dim 4, via S2Uv rule and engine", ok, f"dim {fs.dim}")]


def _transversals(n):
    return [
        unit(n, n - 1),
        tuple(a + b for a, b in zip(unit(n, 0), unit(n, n - 1))),
        tuple(Fraction([2, -1][i % 2] if i != n - 1 else 3) for i in range(n)),
    ]


def _torsion_at(gamma, n, v):
    """The definition of the torsion map at a transversal v: T(X) =
    X_v - X v on R^{n-1}, split along R^{n-1} + span(v) into T1 (flattened
    (n-1) x (n-1)) and T2 (the span(v) coefficients)."""
    m = n - 1
    t = [
        [
            sum(v[i] * (gamma[i * n * n + a * n + k] - gamma[a * n * n + i * n + k]) for i in range(n) if v[i])
            for a in range(m)
        ]
        for k in range(n)
    ]
    t2 = [x / v[m] for x in t[m]]
    return [t[k][a] - t2[a] * v[k] for k in range(m) for a in range(m)], t2


def _obstruction_space_at(h, v):
    """F = T1(ker T2) from the definition at v, on the engine's D: the
    D-restriction check covers D, so a failure here is the torsion's."""
    m = h.n - 1
    pairs = [(t2, t1) for t1, t2 in (_torsion_at(gamma, h.n, v) for gamma in engine.connection_space(h).basis)]
    return image_on_kernel(m, m * m, pairs)


def _restricts_into_k1(gamma, n, kt):
    """Whether a connection's restriction to the hyperplane lies in K^(1),
    read off the definition: gamma is symmetric on hyperplane pairs and
    each slice e_b -> X_a(e_b), a, b < n - 1, lies in the tableau kt."""
    m = n - 1
    x = [[gamma[a * n * n + b * n : a * n * n + (b + 1) * n] for b in range(m)] for a in range(m)]
    if any(x[a][b] != x[b][a] for a in range(m) for b in range(a + 1, m)):
        return False
    return all(kt.contains([x[a][b][k] for k in range(n) for b in range(m)]) for a in range(m))


def _failures_check(name, failures):
    return _check(name, not failures, "; ".join(failures[:3]))


def check_invariant_suite():
    contain, vindep, module, w_cov, d_in_k1, certs = ([] for _ in range(6))
    for h in catalog():
        n = h.n
        kc = characteristic_subalgebra(h)
        fs = obstruction_space(h)
        if not fs.contains_space(kc):
            contain.append(f"k~ not inside F for {h.name}")
        if any(_obstruction_space_at(h, v) != fs for v in _transversals(n)):
            vindep.append(f"v-dependence for {h.name}")
        if any(not fs.contains(commutator(n - 1, a, b)) for a in kc.rows for b in fs.rows):
            module.append(f"[k~,F] escapes F for {h.name}")
        # e^i x w is the matrix with w as its column i
        w_rows = profile(h).W.rows
        if any(not fs.contains({k * (n - 1) + i: x for k, x in w.items()}) for i in range(n - 1) for w in w_rows):
            w_cov.append(f"covector x W escapes F for {h.name}")
        kt = tableau(h)
        if not all(_restricts_into_k1(gamma, n, kt) for gamma in connection_space(h).basis):
            d_in_k1.append(f"D restriction escapes K^(1) for {h.name}")
        # certificates: flat from a k~ element, torsion-free from an F element
        if kc.dim:
            f_mat = Mat.unflatten(n - 1, n - 1, kc.basis[0])
            aa = AlmostAbelian(f_mat)
            cert = flat_certificate(h, aa)
            if not isinstance(cert, Certificate) or any(
                x != 0 for x in torsion_tensor(cert.nabla, aa)
            ) or any(x != 0 for x in curvature_tensor(cert.nabla, aa)):
                certs.append(f"flat certificate failed for {h.name}")
        if fs.dim:
            f_mat = Mat.unflatten(n - 1, n - 1, fs.basis[-1])
            aa = AlmostAbelian(f_mat)
            cert = check_torsion_free(h, aa)
            if not isinstance(cert, Certificate) or any(x != 0 for x in torsion_tensor(cert.nabla, aa)):
                certs.append(f"torsion-free certificate failed for {h.name}")
    out = [
        _failures_check("invariants: k~ inside F over the whole catalog", contain),
        _failures_check("invariants: F independent of the transversal (3 choices)", vindep),
        _failures_check("invariants: [k~, F] inside F", module),
        _failures_check("invariants: covectors x W inside F", w_cov),
        _failures_check("invariants: D restricted to the hyperplane inside K^(1)", d_in_k1),
        _failures_check("invariants: every emitted certificate re-validates exactly", certs),
    ]
    out.extend(_nijenhuis_checks())
    out.extend(_structural_invariants())
    return out


def _nijenhuis_checks():
    vanishing, nonzero = [], []
    for h in (build_gl_C(2), build_gl_C(3), build_sl_C(2)):
        j = h.structures["J"]
        for flat in characteristic_subalgebra(h).basis:
            f_mat = Mat.unflatten(h.n - 1, h.n - 1, flat)
            if any(x != 0 for x in nijenhuis(j, AlmostAbelian(f_mat))):
                vanishing.append(f"Nijenhuis nonzero on a k~ element of {h.name}")
                break
    for n in (4, 6):
        f = Mat.unflatten(n - 1, n - 1, unit((n - 1) ** 2, 1))  # E_12
        if all(x == 0 for x in nijenhuis(standard_J(n), AlmostAbelian(f))):
            nonzero.append(f"Nijenhuis zero for J0 and f = E_12 at n = {n}")
    return [
        _failures_check("invariants: Nijenhuis vanishes for complex-structure certificates", vanishing),
        _failures_check("invariants: Nijenhuis nonzero on one seeded counterexample per size", nonzero),
    ]


def _structural_invariants():
    """Structural checks over the catalog, each algebra read through its profile."""
    elliptic, totally_real, sandwich, nu, s2uv = ([] for _ in range(5))
    for h in catalog():
        n, prof = h.n, profile(h)
        g = h.structures.get("g")
        # super-elliptic metric algebras have vanishing first prolongation
        if g is not None and classify_low_rank(h, 2)["status"] == "certified" and first_prolongation(h).dim != 0:
            elliptic.append(f"K^(1) != 0 for the certified super-elliptic {h.name}")
        # totally real: K^(1) inside S^2 (R_J)^0 x R^n
        if prof.Jh is not None and h.span.intersect(prof.Jh).dim == 0:
            m = n - 1
            # the annihilator of R_J in (R^{n-1})*, a line; ann x ann x e_k
            # sits at i m n + j n + k
            ann = orthogonal_complement(Mat.identity(m), Subspace.span(m, [b[:m] for b in prof.RJ.basis])).basis[0]
            target = [sparse_sum((i * m * n + jj * n + k, ann[i] * ann[jj]) for i in range(m) for jj in range(m)) for k in range(n)]
            if not Subspace.span(m * m * n, target).contains_space(first_prolongation(h)):
                totally_real.append(f"K^(1) escapes S^2 ann(R_J) x R^n for {h.name}")
        # nu is injective or zero whenever defined
        if prof.nu is not None and prof.U_cal is not None and prof.nu.rank() not in (0, prof.U_cal.dim):
            nu.append(f"nu neither injective nor zero for {h.name}")
        # non-degenerate metric algebras with nonzero prolongation have
        # K^(1) = S^2 U x normal; the S2Uv guard recomputes both sides
        if (
            prof.degenerate is False
            and first_prolongation(h).dim != 0
            and "S2Uv" not in dict(applicable_rules(h))
        ):
            s2uv.append(f"S2Uv rule does not fire for {h.name}")
    # commuting-endomorphism sandwich: the tangent commutant (A h inside h,
    # so the sandwich collapses) and Dgl(2,R) with its K tensor (strict)
    for h, a_tensor in (
        (build_tangent_gl(2), build_tangent_gl(2).structures["tangent"]),
        (build_delta_gl(2), build_delta_gl(2).structures["hpc"][2]),
    ):
        big_alg = LinearSubalgebra(h.n, (h.span + left_span(a_tensor, h)).rows, validate=False)
        kc = characteristic_subalgebra(h)
        fs = obstruction_space(h)
        if not (fs.contains_space(kc) and characteristic_subalgebra(big_alg).contains_space(fs)):
            sandwich.append(f"k~ <= F <= k~_(h+Ah) fails for {h.name}")
    return [
        _failures_check("invariants: super-elliptic metric catalog algebras have K^(1) = 0", elliptic),
        _failures_check("invariants: totally real K^(1) inside S^2 ann(R_J) x R^n", totally_real),
        _failures_check("invariants: commuting-endomorphism sandwich k~ <= F <= k~_{h+Ah}", sandwich),
        _failures_check("invariants: nu injective or zero", nu),
        _failures_check("invariants: non-degenerate metric K^(1) has the S^2 U x normal shape", s2uv),
    ]


def check_master_crosscheck():
    mismatches = []
    fired = 0
    for h in catalog():
        rep = crosscheck(h)
        fired += len(rep["rules"])
        if not rep["all_equal"]:
            mismatches.append(h.name)
    ok = not mismatches and fired >= 10
    return [_check("master: every fired closed-form rule equals the engine (catalog-wide)", ok, f"{fired} rule firings" if ok else f"mismatches: {mismatches}")]


CHECKS = [
    ("symplectic", check_symplectic),
    ("complex", check_complex),
    ("unitary", check_unitary),
    ("metric", check_metric_full_group),
    ("hypercomplex", check_hypercomplex),
    ("hyperparacomplex", check_hyperparacomplex),
    ("product-tangent", check_product_tangent),
    ("lagrangian", check_lagrangian),
    ("invariants", check_invariant_suite),
    ("master", check_master_crosscheck),
]


def verify_paper(targets=None, seed=None):
    """Run the verification suite; returns a list of check results.

    seed overrides the fixed seed of the randomized decider sweeps.
    """
    known = {name for name, _ in CHECKS}
    if targets:
        unknown = [t for t in targets if t not in known]
        if unknown:
            raise KeyError(f"unknown verification target(s): {', '.join(unknown)}")
    results = []
    for name, fn in CHECKS:
        if not targets or name in targets:
            results.extend(fn(seed=seed) if fn is check_product_tangent and seed is not None else fn())
    return results
