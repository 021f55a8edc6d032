"""The full cross-verification suite over the built-in catalog.

Each check reproduces a worked example or a structural identity with
exact arithmetic and compares closed forms against the generic engine.
The CLI `verify-paper` command and the acceptance test module both run
this list; every tolerance is exact subspace or tensor equality.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebras import LinearSubalgebra, MetricContext, bracket, conjugate, is_degenerate
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
from .linalg import Mat, Subspace, kernel
from .profiles import applicable_rules, crosscheck, profile


def _e(n, i, j):
    out = [[Fraction(0)] * n for _ in range(n)]
    out[i][j] = Fraction(1)
    return Mat(out)


def _embed_topleft(small, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(small.rows):
        for j in range(small.cols):
            out[i][j] = small.data[i][j]
    return Mat(out)


def _sp_block_pattern(m):
    """[[A, 0], [w^t, a]] with A in sp(2m-2, R), inside End(R^{2m-1})."""
    n1 = 2 * m - 1
    vecs = []
    if m >= 2:
        for a in build_sp(m - 1).basis:
            vecs.append(_embed_topleft(a, n1).flatten())
    for j in range(n1 - 1):
        vecs.append(_e(n1, n1 - 1, j).flatten())
    vecs.append(_e(n1, n1 - 1, n1 - 1).flatten())
    return Subspace.span(n1 * n1, vecs)


def _glC_block_pattern(m):
    """[[A, v], [0, a]] with A in gl(m-1, C), inside End(R^{2m-1})."""
    n1 = 2 * m - 1
    vecs = []
    for a in build_gl_C(m - 1).basis:
        vecs.append(_embed_topleft(a, n1).flatten())
    for i in range(n1 - 1):
        vecs.append(_e(n1, i, n1 - 1).flatten())
    vecs.append(_e(n1, n1 - 1, n1 - 1).flatten())
    return Subspace.span(n1 * n1, vecs)


def _u_pattern(m):
    """k~_{u(m)} + the line through e^{2m-1} x e_{2m-1}."""
    n1 = 2 * m - 1
    vecs = []
    for a in build_u(m - 1).basis:
        vecs.append(_embed_topleft(a, n1).flatten())
    vecs.append(_e(n1, n1 - 1, n1 - 1).flatten())
    return Subspace.span(n1 * n1, vecs)


def _u11_diag_pattern():
    """diag(A, a) with A spanning u(1,0) = u(0,1), for u(1,1)."""
    rot = Mat([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return Subspace.span(9, [rot.flatten(), _e(3, 2, 2).flatten()])


def _delta_gl_pattern(m):
    """[[A, 0, w1], [0, A, w2], [0, 0, a]] in the coordinates
    (e_1..e_{m-1}, e_{m+1}..e_{2m-1}, e_m) of the standard hyperplane."""
    n1 = 2 * m - 1
    x = list(range(m - 1))
    y = [m + i for i in range(m - 1)]
    v = m - 1
    vecs = []
    for i in range(m - 1):
        for j in range(m - 1):
            vecs.append((_e(n1, x[i], x[j]) + _e(n1, y[i], y[j])).flatten())
    for i in range(m - 1):
        vecs.append(_e(n1, x[i], v).flatten())
        vecs.append(_e(n1, y[i], v).flatten())
    vecs.append(_e(n1, v, v).flatten())
    return Subspace.span(n1 * n1, vecs)


def _end_L_pattern():
    """End_L for the Lagrangian example at m = 2: image in L, L in kernel."""
    lag_rows = (0, 2)
    free_cols = (1, 3)
    vecs = [_e(4, i, j).flatten() for i in lag_rows for j in free_cols]
    return Subspace.span(16, vecs)


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
        out.append(
            _check(f"unitary u({m}): F = k~ + <e x e> via engine and unitary rule", ok, f"dim {fs.dim}")
        )
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
        out.append(
            _check(
                f"hypercomplex {h.name}: certified super-elliptic, K^(1) = 0, F = k~",
                ok,
                f"method {rank_report['method']}",
            )
        )
    bare = LinearSubalgebra(4, build_sp_H(1).basis, name="sp(1)-bare", validate=False)
    res = classify_low_rank(bare, 2)
    out.append(
        _check(
            "hypercomplex sp(1): exhaustive minor solve certifies no rank <= 2",
            res["status"] == "certified" and res["method"] == "minor-variety-empty",
            res["method"],
        )
    )
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


def check_product_tangent(seed=20260808):
    out = []
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        h = build_product_gl(n, p)
        cat = orbit_catalog("product", n, p=p)
        ok = all(
            product_obstruction(n, p, t) == obstruction_space(conjugate(h, rep["T"]))
            for t, rep in enumerate(cat.reps, start=1)
        )
        invs = [product_eigendims(rep["subspace"], n, p) for rep in cat.reps]
        ok = ok and len(set(invs)) == 3
        out.append(_check(f"product patterns = engine on conjugates, (n,p)=({n},{p})", ok))
    for n in (4, 6):
        h = build_tangent_gl(n // 2)
        cat = orbit_catalog("tangent", n)
        ok = all(
            tangent_obstruction(n, t) == obstruction_space(conjugate(h, rep["T"]))
            for t, rep in enumerate(cat.reps, start=1)
        )
        out.append(_check(f"tangent patterns = engine on conjugates, n={n}", ok))
    rng = random.Random(seed)
    all_yes = True
    for n, p in ((4, 2), (5, 2), (5, 3), (6, 3)):
        for _ in range(100):
            f = Mat([[rng.randint(-5, 5) for _ in range(n - 1)] for _ in range(n - 1)])
            if decide_product(AlmostAbelian(f), p)["verdict"] != "yes":
                all_yes = False
    out.append(_check("decide_product: yes on 100 seeded random f per size", all_yes))
    all_yes = True
    for n in (4, 6):
        for _ in range(100):
            f = Mat([[rng.randint(-5, 5) for _ in range(n - 1)] for _ in range(n - 1)])
            if decide_tangent(AlmostAbelian(f))["verdict"] != "yes":
                all_yes = False
    out.append(_check("decide_tangent: yes on 100 seeded random f per size", all_yes))
    return out


def check_lagrangian():
    h = build_lagrangian_symplectic(2)
    fs = obstruction_space(h)
    rules = dict(applicable_rules(h))
    ok = fs == _end_L_pattern() and fs.dim == 4 and rules.get("S2Uv") == fs
    return [_check("Lagrangian-symplectic m=2: F = End_L, dim 4, via S2Uv rule and engine", ok, f"dim {fs.dim}")]


def _transversals(n):
    vs = [
        tuple(Fraction(1 if i == n - 1 else 0) for i in range(n)),
        tuple(Fraction(1 if i in (0, n - 1) else 0) for i in range(n)),
        tuple(Fraction([2, -1][i % 2] if i != n - 1 else 3) for i in range(n)),
    ]
    return vs


def check_invariant_suite():
    out = []
    algebras = catalog()
    ok_contain = ok_vindep = ok_module = ok_w = ok_d_in_k1 = ok_certs = True
    detail = []
    for h in algebras:
        n = h.n
        kc = characteristic_subalgebra(h)
        fs = obstruction_space(h)
        if not fs.contains_space(kc):
            ok_contain = False
            detail.append(f"k~ not inside F for {h.name}")
        for v in _transversals(n):
            if obstruction_space(h, v) != fs:
                ok_vindep = False
                detail.append(f"v-dependence for {h.name}")
        kc_mats = [Mat.unflatten(n - 1, n - 1, b) for b in kc.basis]
        fs_mats = [Mat.unflatten(n - 1, n - 1, b) for b in fs.basis]
        for a in kc_mats:
            for b in fs_mats:
                if not fs.contains(bracket(a, b).flatten()):
                    ok_module = False
                    detail.append(f"[k~,F] escapes F for {h.name}")
        prof = profile(h)
        for i in range(n - 1):
            for w in prof.W.basis:
                mat = Mat([[w[k] if j == i else Fraction(0) for j in range(n - 1)] for k in range(n - 1)])
                if not fs.contains(mat.flatten()):
                    ok_w = False
                    detail.append(f"covector x W escapes F for {h.name}")
        k1 = first_prolongation(h)
        m = n - 1
        for gamma in connection_space(h).basis:
            restricted = [Fraction(0)] * (m * m * n)
            for i in range(m):
                for j in range(m):
                    for k in range(n):
                        restricted[i * m * n + j * n + k] = gamma[i * n * n + j * n + k]
            if not k1.contains(restricted):
                ok_d_in_k1 = False
                detail.append(f"D restriction escapes K^(1) for {h.name}")
        # certificates: flat from a k~ element, torsion-free from an F element
        if kc.dim:
            f_mat = Mat.unflatten(n - 1, n - 1, kc.basis[0])
            aa = AlmostAbelian(f_mat)
            cert = flat_certificate(h, aa)
            if not isinstance(cert, Certificate) or any(
                x != 0 for x in torsion_tensor(cert.nabla, aa)
            ) or any(x != 0 for x in curvature_tensor(cert.nabla, aa)):
                ok_certs = False
                detail.append(f"flat certificate failed for {h.name}")
        if fs.dim:
            f_mat = Mat.unflatten(n - 1, n - 1, fs.basis[-1])
            aa = AlmostAbelian(f_mat)
            cert = check_torsion_free(h, aa)
            if not isinstance(cert, Certificate) or any(x != 0 for x in torsion_tensor(cert.nabla, aa)):
                ok_certs = False
                detail.append(f"torsion-free certificate failed for {h.name}")
    out.append(_check("invariants: k~ inside F over the whole catalog", ok_contain, "; ".join(detail[:3])))
    out.append(_check("invariants: F independent of the transversal (3 choices)", ok_vindep))
    out.append(_check("invariants: [k~, F] inside F", ok_module))
    out.append(_check("invariants: covectors x W inside F", ok_w))
    out.append(_check("invariants: D restricted to the hyperplane inside K^(1)", ok_d_in_k1))
    out.append(_check("invariants: every emitted certificate re-validates exactly", ok_certs))
    out.extend(_nijenhuis_checks())
    out.extend(_structural_invariants())
    return out


def _nijenhuis_checks():
    ok_zero = True
    for h in (build_gl_C(2), build_gl_C(3), build_sl_C(2)):
        j = h.structures["J"]
        kc = characteristic_subalgebra(h)
        for flat in kc.basis:
            f_mat = Mat.unflatten(h.n - 1, h.n - 1, flat)
            if any(x != 0 for x in nijenhuis(j, AlmostAbelian(f_mat))):
                ok_zero = False
    ok_nonzero = True
    for n in (4, 6):
        f = _e(n - 1, 0, 1)
        if all(x == 0 for x in nijenhuis(standard_J(n), AlmostAbelian(f))):
            ok_nonzero = False
    return [
        _check("invariants: Nijenhuis vanishes for complex-structure certificates", ok_zero),
        _check("invariants: Nijenhuis nonzero on one seeded counterexample per size", ok_nonzero),
    ]


def _structural_invariants():
    out = []
    # super-elliptic metric algebras have vanishing first prolongation
    ok = True
    for h in catalog():
        if "g" not in h.structures:
            continue
        res = classify_low_rank(h, 2)
        if res["status"] == "certified" and first_prolongation(h).dim != 0:
            ok = False
    out.append(_check("invariants: super-elliptic metric catalog algebras have K^(1) = 0", ok))
    # totally real: K^(1) inside S^2 (R_J)^0 x R^n
    ok = True
    for h in catalog():
        j = h.structures.get("J")
        if j is None:
            continue
        n = h.n
        jh = Subspace.span(n * n, [(j * b).flatten() for b in h.basis])
        if h.span.intersect(jh).dim != 0:
            continue
        prof = profile(h)
        ann = _annihilator_of(prof.RJ, n - 1)
        target_vecs = []
        m = n - 1
        for k in range(n):
            flat = [Fraction(0)] * (m * m * n)
            for i in range(m):
                for jj in range(m):
                    flat[i * m * n + jj * n + k] = ann[i] * ann[jj]
            target_vecs.append(flat)
        target = Subspace.span(m * m * n, target_vecs)
        if not target.contains_space(first_prolongation(h)):
            ok = False
    out.append(_check("invariants: totally real K^(1) inside S^2 ann(R_J) x R^n", ok))
    # commuting-endomorphism sandwich: the tangent commutant (A h inside h,
    # so the sandwich collapses) and Dgl(2,R) with its K tensor (strict)
    ok = True
    for h, a_tensor in (
        (build_tangent_gl(2), build_tangent_gl(2).structures["tangent"]),
        (build_delta_gl(2), build_delta_gl(2).structures["hpc"][2]),
    ):
        n = h.n
        sum_span = Subspace.span(
            n * n, [m.flatten() for m in h.basis] + [(a_tensor * b).flatten() for b in h.basis]
        )
        big_alg = LinearSubalgebra(n, [Mat.unflatten(n, n, v) for v in sum_span.basis], validate=False)
        kc = characteristic_subalgebra(h)
        fs = obstruction_space(h)
        kc_big = characteristic_subalgebra(big_alg)
        if not (fs.contains_space(kc) and kc_big.contains_space(fs)):
            ok = False
    out.append(_check("invariants: commuting-endomorphism sandwich k~ <= F <= k~_{h+Ah}", ok))
    # nu is injective or zero whenever defined
    ok = True
    for h in catalog():
        prof = profile(h)
        if prof.nu is not None and prof.U_cal is not None:
            rank = prof.nu.matrix.rank()
            if rank not in (0, prof.U_cal.dim):
                ok = False
    out.append(_check("invariants: nu injective or zero", ok))
    # non-degenerate metric algebras with nonzero prolongation have
    # K^(1) = S^2 U x normal; the S2Uv guard recomputes both sides
    ok = True
    for h in catalog():
        g = h.structures.get("g")
        if g is None:
            continue
        hyper = Subspace.span(h.n, [tuple(Fraction(1 if i == j else 0) for i in range(h.n)) for j in range(h.n - 1)])
        if is_degenerate(MetricContext(g), hyper):
            continue
        if first_prolongation(h).dim == 0:
            continue
        fired = {label for label, _ in applicable_rules(h)}
        if "S2Uv" not in fired:
            ok = False
    out.append(_check("invariants: non-degenerate metric K^(1) has the S^2 U x normal shape", ok))
    return out


def _annihilator_of(rj: Subspace, m):
    """Generator of the annihilator of R_J inside (R^{n-1})*."""
    rows = [list(b[:m]) for b in rj.basis]
    ann = kernel(Mat(rows, len(rows), m)).basis
    return ann[0]


def check_master_crosscheck():
    out = []
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
        if targets and name not in targets:
            continue
        if fn is check_product_tangent and seed is not None:
            results.extend(fn(seed=seed))
        else:
            results.extend(fn())
    return results
