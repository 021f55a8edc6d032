"""Existence of torsion-free structures of any hyperplane type.

Orbit representatives for the product/tangent groups with their
hyperplane-straightening maps, the explicit obstruction block patterns
per type, and deciders that construct certified bases in the
rational-spectrum regime (characteristic polynomial splitting into
rational roots and quadratics).  Outside that regime verdicts degrade
to an honest "unknown"; "no" is only returned where the regime makes
the search provably exhaustive.  Every "yes + basis" is certified by
conjugating f and matching the claimed pattern entry by entry.
"""

from __future__ import annotations

from fractions import Fraction

from .builders import build_sl_C, build_sp_C
from .engine import AlmostAbelian, obstruction_space
from .linalg import Mat, Subspace
from .polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    min_poly,
    poly_gcd,
    rational_roots,
    squarefree_part,
)
from .spectral import (
    achievable_invariant_dims,
    chain_vectors,
    invariant_subspace,
    jordan_chains,
    primary_components,
)


class OrbitCatalog:
    __slots__ = ("group", "reps")

    def __init__(self, group, reps):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "reps", tuple(reps))

    def __setattr__(self, *a):
        raise AttributeError("OrbitCatalog is immutable")


def _unit(n, i):
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def _map_from_images(pairs, n):
    """The matrix sending each source vector to its image."""
    src = Mat.from_cols([list(s) for s, _ in pairs])
    dst = Mat.from_cols([list(t) for _, t in pairs])
    return dst * src.inverse()


def orbit_catalog(group, n, p=None) -> OrbitCatalog:
    """Hyperplane-orbit representatives (U_alpha, T_alpha) per group."""
    if group == "product":
        if p is None or not 1 <= p <= n - 1:
            raise ValueError("product orbits need a signature 1 <= p <= n-1")
        u1 = Subspace.span(n, [_unit(n, i) for i in range(n - 1)])
        u2_basis = [_unit(n, i) for i in range(p - 1)] + [_unit(n, i) for i in range(p, n)]
        u3_basis = (
            [_unit(n, i) for i in range(p - 1)]
            + [_unit(n, i) for i in range(p, n - 1)]
            + [tuple(Fraction(1 if k in (p - 1, n - 1) else 0) for k in range(n))]
        )
        t2 = _map_from_images(
            [(v, _unit(n, i)) for i, v in enumerate(u2_basis)] + [(_unit(n, p - 1), _unit(n, n - 1))], n
        )
        t3 = _map_from_images(
            [(v, _unit(n, i)) for i, v in enumerate(u3_basis)] + [(_unit(n, n - 1), _unit(n, n - 1))], n
        )
        reps = [
            {"label": "[U1]", "subspace": u1, "T": Mat.identity(n)},
            {"label": "[U2]", "subspace": Subspace.span(n, u2_basis), "T": t2},
            {"label": "[U3]", "subspace": Subspace.span(n, u3_basis), "T": t3},
        ]
        return OrbitCatalog("product", reps)
    if group == "tangent":
        if n % 2:
            raise ValueError("tangent structures need even dimension")
        m = n // 2
        u1 = Subspace.span(n, [_unit(n, i) for i in range(n - 1)])
        u2_basis = [_unit(n, i) for i in range(m - 1)] + [_unit(n, i) for i in range(m, n)]
        t2 = _map_from_images(
            [(v, _unit(n, i)) for i, v in enumerate(u2_basis)] + [(_unit(n, m - 1), _unit(n, n - 1))], n
        )
        reps = [
            {"label": "[U1]", "subspace": u1, "T": Mat.identity(n)},
            {"label": "[U2]", "subspace": Subspace.span(n, u2_basis), "T": t2},
        ]
        return OrbitCatalog("tangent", reps)
    if group in ("gl_C", "sl_C", "sp_C", "u", "su", "gl_H"):
        u1 = Subspace.span(n, [_unit(n, i) for i in range(n - 1)])
        return OrbitCatalog(group, [{"label": "[U1]", "subspace": u1, "T": Mat.identity(n)}])
    raise KeyError(f"unsupported group {group!r}")


def product_eigendims(sub: Subspace, n, p):
    """(d+, d-) = dims of the intersections with the P0 eigenspaces."""
    plus = Subspace.span(n, [_unit(n, i) for i in range(p)])
    minus = Subspace.span(n, [_unit(n, i) for i in range(p, n)])
    return sub.intersect(plus).dim, sub.intersect(minus).dim


def _pattern_subspace(n1, allowed):
    vecs = []
    for i in range(n1):
        for j in range(n1):
            if allowed(i, j):
                flat = [Fraction(0)] * (n1 * n1)
                flat[i * n1 + j] = Fraction(1)
                vecs.append(flat)
    return Subspace.span(n1 * n1, vecs)


def product_obstruction(n, p, type_index) -> Subspace:
    """The obstruction block pattern for product structures of type [U_k]."""
    if not 1 <= p <= n - 1:
        raise ValueError("need 1 <= p <= n-1")
    n1 = n - 1
    if type_index == 1:
        return _pattern_subspace(n1, lambda i, j: not (i < p and j >= p))
    if type_index == 2:
        return _pattern_subspace(n1, lambda i, j: not (i >= p - 1 and j < p - 1))
    if type_index == 3:
        def allowed(i, j):
            if j == n1 - 1:
                return True
            if i < p - 1 and j < p - 1:
                return True
            return p - 1 <= i < n1 - 1 and p - 1 <= j < n1 - 1
        return _pattern_subspace(n1, allowed)
    raise ValueError("type must be 1, 2 or 3")


def tangent_obstruction(n, type_index) -> Subspace:
    """The obstruction pattern for tangent structures of type [U_k]."""
    if n % 2:
        raise ValueError("tangent structures need even dimension")
    m = n // 2
    if m < 2:
        raise ValueError("degenerate tangent blocks at m = 1")
    n1 = n - 1
    if type_index == 1:
        vecs = []
        for i in range(m - 1):
            for j in range(m - 1):
                flat = [Fraction(0)] * (n1 * n1)
                flat[i * n1 + j] = Fraction(1)
                flat[(m + i) * n1 + (m + j)] = Fraction(1)
                vecs.append(flat)
        extra = _pattern_subspace(
            n1,
            lambda i, j: (j == m - 1) or (i >= m and j < m - 1),
        )
        return Subspace.span(n1 * n1, vecs + list(extra.basis))
    if type_index == 2:
        return _pattern_subspace(n1, lambda i, j: not (i < m - 1 and m - 1 <= j < n1 - 1))
    raise ValueError("type must be 1 or 2")


def _conjugated_pattern_check(f, basis_cols, in_pattern):
    """Change basis and verify the pattern predicate entry-wise."""
    s = Mat.from_cols([list(c) for c in basis_cols])
    fp = s.inverse() * f * s
    n1 = f.rows
    for i in range(n1):
        for j in range(n1):
            if not in_pattern(i, j) and fp.data[i][j] != 0:
                return None
    return s, fp


def _complete_basis(vectors, n1):
    out = list(vectors)
    span = Subspace.span(n1, out)
    for i in range(n1):
        e = _unit(n1, i)
        if not span.contains(e):
            out.append(e)
            span = Subspace.span(n1, out)
    return out


def _check_signature(n, p):
    if p is None or not 1 <= p <= n - 1:
        raise ValueError("need 1 <= p <= n-1")


def _invariant_data(f):
    """primary_components(f) and the invariant-subspace dimensions it reaches."""
    summary, split = primary_components(f)
    return summary, split, achievable_invariant_dims(f, summary, split)


def decide_product(aa: AlmostAbelian, p):
    """Product structures of signature (p, q) always exist; construct when possible."""
    _check_signature(aa.n, p)
    return _product_basis(aa.f, p, *_invariant_data(aa.f))


def _product_basis(f, p, summary, split, dims):
    n1 = f.rows
    q = n1 + 1 - p
    # type [U1]: an invariant subspace of dimension q-1 spanned by the tail
    if q - 1 in dims:
        w = invariant_subspace(f, summary, split, q - 1)
        completion = _complete_basis(list(w.basis), n1)[w.dim :]
        cols = completion + list(w.basis)
        checked = _conjugated_pattern_check(f, cols, lambda i, j: not (i < p and j >= p))
        if checked is not None:
            s, fp = checked
            return {"verdict": "yes", "type": "[U1]", "basis": s, "conjugated": fp, "rule": "invariant-subspace"}
    if p - 1 in dims:
        w = invariant_subspace(f, summary, split, p - 1)
        cols = list(w.basis) + _complete_basis(list(w.basis), n1)[w.dim :]
        checked = _conjugated_pattern_check(f, cols, lambda i, j: not (i >= p - 1 and j < p - 1))
        if checked is not None:
            s, fp = checked
            return {"verdict": "yes", "type": "[U2]", "basis": s, "conjugated": fp, "rule": "invariant-subspace"}
    # existence is guaranteed by the classification of product types
    return {"verdict": "yes", "type": None, "basis": None, "rule": "existence-only"}


def decide_tangent(aa: AlmostAbelian):
    """Tangent structures always exist on even-dimensional algebras."""
    if aa.n % 2:
        raise ValueError("tangent structures need even dimension")
    return _tangent_basis(aa.f, *_invariant_data(aa.f))


def _tangent_basis(f, summary, split, dims):
    n1 = f.rows
    m = (n1 + 1) // 2
    pattern = lambda i, j: not (i < m - 1 and m - 1 <= j < n1 - 1)
    for d in (m, m - 1):
        if d not in dims:
            continue
        w = invariant_subspace(f, summary, split, d)
        if d == m:
            middle = list(w.basis[: m - 1])
            last = [w.basis[m - 1]]
        else:
            middle = list(w.basis)
            span_w = Subspace.span(n1, middle)
            last = [next(_unit(n1, i) for i in range(n1) if not span_w.contains(_unit(n1, i)))]
        rest = _complete_basis(middle + last, n1)[len(middle) + 1 :]
        cols = rest + middle + last
        checked = _conjugated_pattern_check(f, cols, pattern)
        if checked is not None:
            s, fp = checked
            return {"verdict": "yes", "type": "[U2]", "basis": s, "conjugated": fp, "rule": "invariant-subspace"}
    return {"verdict": "yes", "type": None, "basis": None, "rule": "existence-only"}


def _divisible_after_removal(fd, removals, factors, modulus):
    """Whether every block count is divisible by modulus once one block
    of each size in removals leaves the factor fd.

    Removing a block of size s leaves one of size s - 1.  The counts
    checked are fd's after the removal and those of the other factors.
    """
    counts = dict(fd.block_counts)
    for s in removals:
        if counts.get(s, 0) <= 0:
            return False
        counts[s] -= 1
        if s > 1:
            counts[s - 1] = counts.get(s - 1, 0) + 1
    others = [other.block_counts for other in factors if other is not fd]
    return all(v % modulus == 0 for c in [counts, *others] for v in c.values())


def _rational_eigen_factors(split):
    return [fd for fd in split if fd.deg == 1]


# -- hyperparacomplex classification ----------------------------------------


def classify_hyperparacomplex(aa: AlmostAbelian):
    """Normal-form search for hyperparacomplex structures.

    Case A: f = [[A, 0, w1], [0, A, w2], [0, 0, a]] in some basis.
    Case B: the five-block form with the shared (u1, u2) couplings.
    "no" is only claimed when the spectral regime makes the candidate
    sweep exhaustive (all real eigenvalues rational; n <= 8 for case B).
    """
    n = aa.n
    if n % 2:
        raise ValueError("hyperparacomplex structures need even dimension")
    m = n // 2
    f = aa.f
    summary, split = primary_components(f)
    total_real = sum(c for _, _, c in summary.squarefree)
    if total_real == 0:
        return {"verdict": "no", "rule": "no-real-eigenvalue"}
    # block counts inside unfactored pieces are unknown
    if summary.fully_split:
        for fd in _rational_eigen_factors(split):
            for s in sorted(fd.block_counts, reverse=True):
                if _divisible_after_removal(fd, [s], split, 2):
                    built = _construct_case_a(f, split, fd, s, m)
                    if built is not None:
                        return built
        case_b = _classify_case_b(f, split, m)
        if case_b is not None:
            return case_b
        if n <= 8:
            return {"verdict": "no", "rule": "exhaustive-normal-form-search"}
    return {"verdict": "unknown", "rule": "outside-rational-spectral-regime"}


def _paired_chain_bases(f, split, fd_special, special_chains):
    """V1/V2 chain bases with every chain paired by factor and length.

    The chains of fd_special are replaced by special_chains, from which
    the caller has shortened or removed the chains it places itself.
    Returns (v1_vectors, v2_vectors) or None if pairing fails.
    """
    v1, v2 = [], []
    for fd in split:
        chains = special_chains if fd is fd_special else jordan_chains(f, fd)
        by_len = {}
        for ch in chains:
            by_len.setdefault(len(ch), []).append(ch)
        for length, group in sorted(by_len.items()):
            if len(group) % 2:
                return None
            for k in range(0, len(group), 2):
                v1.extend(chain_vectors(f, fd, group[k]))
                v2.extend(chain_vectors(f, fd, group[k + 1]))
    return v1, v2


def _case_a_pattern(m):
    def allowed(i, j):
        mm = m - 1
        if i < mm and j < mm:
            return True
        if mm <= i < 2 * mm and mm <= j < 2 * mm:
            return True
        return j == 2 * mm
    return allowed


def _construct_case_a(f, split, fd, s, m):
    chains = jordan_chains(f, fd)
    idx = next(i for i, ch in enumerate(chains) if len(ch) == s)
    top = chains[idx][0]
    # the top of the chosen chain is the line; the rest of it is paired
    shortened = chains[:idx] + ([chains[idx][1:]] if s > 1 else []) + chains[idx + 1 :]
    paired = _paired_chain_bases(f, split, fd, shortened)
    if paired is None:
        return None
    v1, v2 = paired
    if len(v1) != m - 1:
        return None
    cols = v1 + v2 + [top]
    checked = _conjugated_pattern_check(f, cols, _case_a_pattern(m))
    if checked is None:
        return None
    s_mat, fp = checked
    mm = m - 1
    a_block = fp.submatrix(range(mm), range(mm))
    if a_block != fp.submatrix(range(mm, 2 * mm), range(mm, 2 * mm)):
        return None
    data = {
        "verdict": "yes_caseA",
        "rule": "doubled-plus-line",
        "basis": s_mat,
        "conjugated": fp,
        "A": a_block,
        "w1": fp.col(2 * mm)[:mm],
        "w2": fp.col(2 * mm)[mm : 2 * mm],
        "a": fp.data[2 * mm][2 * mm],
        "lam": Fraction(1),
        "mu": Fraction(1),
    }
    return data


def _case_b_pattern(m):
    mm = m - 2

    def allowed(i, j):
        if i < 2 * mm and j < 2 * mm:
            return (i < mm) == (j < mm)
        if j >= 2 * mm and i < 2 * mm:
            return True
        return i == j and i >= 2 * mm
    return allowed


def _classify_case_b(f, split, m):
    for fd in _rational_eigen_factors(split):
        counts = fd.block_counts
        variants = []
        if counts.get(1, 0) >= 3:
            variants.append(("three-ones", [1, 1, 1], None))
        for s in sorted(c for c in counts if c >= 2):
            if counts.get(s, 0) >= 2 and counts.get(1, 0) >= 1:
                variants.append(("pair-plus-one", [s, s, 1], s))
            if counts.get(s, 0) >= 3 and counts.get(s - 1, 0) >= 1:
                variants.append(("triple", [s, s, s], s))
        for mode, removals, s in variants:
            if not _divisible_after_removal(fd, removals, split, 2):
                continue
            built = _construct_case_b(f, split, fd, mode, s, m)
            if built is not None:
                return built
    return None


def _halves(chain_a, chain_b, sign):
    out = []
    for x, y in zip(chain_a, chain_b):
        out.append(tuple((xi + sign * yi) / 2 for xi, yi in zip(x, y)))
    return out


def _construct_case_b(f, split, fd, mode, s, m):
    chains = jordan_chains(f, fd)
    if mode == "three-ones":
        ones = [i for i, ch in enumerate(chains) if len(ch) == 1]
        if len(ones) < 3:
            return None
        extra = [chains[i][0] for i in ones[:3]]
        drop = set(ones[:3])
        keep = [ch for i, ch in enumerate(chains) if i not in drop]
        paired = _paired_chain_bases(f, split, fd, keep)
        if paired is None:
            return None
        v1, v2 = paired
        cols = v1 + v2 + extra
    elif mode == "pair-plus-one":
        s_idx = [i for i, ch in enumerate(chains) if len(ch) == s]
        one_idx = [i for i, ch in enumerate(chains) if len(ch) == 1 and i not in s_idx[:2]]
        if len(s_idx) < 2 or not one_idx:
            return None
        c1, c2 = chains[s_idx[0]], chains[s_idx[1]]
        w = chains[one_idx[0]][0]
        remaining = [ch for i, ch in enumerate(chains) if i not in (s_idx[0], s_idx[1], one_idx[0])]
        # dropped tops become v1, v2; the spare eigenvector shifts v3
        ordered = _paired_with_forced(f, split, fd, remaining, [(c1[1:], c2[1:])])
        if ordered is None:
            return None
        v1, v2 = ordered
        t1, t2 = c1[0], c2[0]
        v3 = tuple(x + y for x, y in zip(t1, w))
        cols = v1 + v2 + [t1, t2, v3]
    else:  # triple
        s_idx = [i for i, ch in enumerate(chains) if len(ch) == s]
        short_idx = [i for i, ch in enumerate(chains) if len(ch) == s - 1]
        if len(s_idx) < 3 or not short_idx:
            return None
        c1, c2, c3 = (chains[i] for i in s_idx[:3])
        c4 = chains[short_idx[0]]
        a_chain = _halves(c1[1:], c3[1:], 1)
        b_chain = _halves(c1[1:], c3[1:], -1)
        c_chain = _halves(c4, c2[1:], -1)
        d_chain = _halves(c4, c2[1:], 1)
        remaining = [ch for i, ch in enumerate(chains) if i not in (*s_idx[:3], short_idx[0])]
        ordered = _paired_with_forced(
            f, split, fd, remaining, [(a_chain, d_chain), (c_chain, b_chain)]
        )
        if ordered is None:
            return None
        v1, v2 = ordered
        cols = v1 + v2 + [c1[0], c2[0], c3[0]]
    checked = _conjugated_pattern_check(f, cols, _case_b_pattern(m))
    if checked is None:
        return None
    s_mat, fp = checked
    mm = m - 2
    if mm and fp.submatrix(range(mm), range(mm)) != fp.submatrix(range(mm, 2 * mm), range(mm, 2 * mm)):
        return None
    if not _case_b_coupling_ok(fp, m):
        return None
    return {
        "verdict": "yes_caseB",
        "rule": "doubled-plus-three",
        "basis": s_mat,
        "conjugated": fp,
        "a": fp.data[2 * (m - 2)][2 * (m - 2)],
    }


def _case_b_coupling_ok(fp, m):
    mm = m - 2
    n1 = fp.rows
    for t in range(3):
        col = fp.col(2 * mm + t)
        for i in range(2 * mm, n1):
            expected = fp.data[2 * mm][2 * mm] if i == 2 * mm + t else Fraction(0)
            if col[i] != expected:
                return False
    u1 = fp.col(2 * mm)[:mm]
    u2 = fp.col(2 * mm)[mm : 2 * mm]
    want = [
        (u1, u2),
        (tuple(-x for x in u2), u1),
        (u1, tuple(-x for x in u2)),
    ]
    for t, (top, bottom) in enumerate(want):
        col = fp.col(2 * mm + t)
        if tuple(col[:mm]) != tuple(top) or tuple(col[mm : 2 * mm]) != tuple(bottom):
            return False
    return True


def _paired_with_forced(f, split, fd_special, remaining, forced_pairs):
    """Pair chains with designated chains forced into opposite copies."""
    v1, v2 = [], []
    for a, b in forced_pairs:
        if len(a) != len(b):
            return None
        v1.extend(chain_vectors(f, fd_special, a))
        v2.extend(chain_vectors(f, fd_special, b))
    rest = _paired_chain_bases(f, split, fd_special, remaining)
    if rest is None:
        return None
    v1.extend(rest[0])
    v2.extend(rest[1])
    return v1, v2


def hpc_flatness(aa: AlmostAbelian, structure_data):
    """Flatness of a verified hyperparacomplex structure.

    Case B is always flat.  Case A is flat iff mu*w1 + lam*w2 is zero
    or an eigenvector of A with eigenvalue 2a; the failing vector is
    the witness.
    """
    verdict = structure_data.get("verdict", "yes_caseA")
    if verdict == "yes_caseB":
        return {"flat": True}
    a_block = structure_data["A"]
    a_val = structure_data["a"]
    lam = structure_data.get("lam", Fraction(1))
    mu = structure_data.get("mu", Fraction(1))
    w1 = structure_data["w1"]
    w2 = structure_data["w2"]
    u = tuple(mu * x + lam * y for x, y in zip(w1, w2))
    if all(x == 0 for x in u):
        return {"flat": True}
    image = a_block.matvec(u) if a_block.rows else ()
    target = tuple(2 * a_val * x for x in u)
    if tuple(image) == target:
        return {"flat": True}
    return {"flat": False, "witness": u, "expected_eigenvalue": 2 * a_val}


# -- torsion-free existence per group ----------------------------------------


def admits_torsion_free(group, aa: AlmostAbelian, p=None):
    """Per-type verdicts for the classified groups.

    A positive verdict carries the adapted-frame recipe
    P = (v o T_alpha) . H with T_alpha the listed straightening map.
    """
    n = aa.n
    if group == "product":
        _check_signature(n, p)
        summary, split, dims = _invariant_data(aa.f)
        res = _product_basis(aa.f, p, summary, split, dims)
        unreached = "no" if summary.fully_split else "unknown"
        types = [
            _typed_verdict("[U1]", "yes" if n - p - 1 in dims else unreached),
            _typed_verdict("[U2]", "yes" if p - 1 in dims else unreached),
            _typed_verdict("[U3]", _u3_verdict(summary, split, p - 1, n - p - 1)),
        ]
        return {"group": group, "types": types, "overall": "yes", "detail": res}
    if group == "tangent":
        if n % 2:
            raise ValueError("tangent structures need even dimension")
        m = n // 2
        summary, split, dims = _invariant_data(aa.f)
        res = _tangent_basis(aa.f, summary, split, dims)
        unreached = "no" if summary.fully_split else "unknown"
        types = [
            _typed_verdict("[U1]", _tangent_u1_verdict(summary, split)),
            _typed_verdict("[U2]", "yes" if m in dims or m - 1 in dims else unreached),
        ]
        return {"group": group, "types": types, "overall": "yes", "detail": res}
    simple = {
        "u": _unitary_verdict,
        "su": _special_unitary_verdict,
        "gl_C": _complex_verdict,
        "gl_H": _quaternionic_verdict,
    }
    if group in simple or group in ("sl_C", "sp_C"):
        modulus = 4 if group in ("gl_H", "sp_C") else 2
        if n % modulus:
            raise ValueError(f"group {group} lives in dimension divisible by {modulus}, got n = {n}")
    if group in simple:
        v = simple[group](aa)
        return {"group": group, "types": [_typed_verdict("[U1]", v)], "overall": v}
    if group in ("sl_C", "sp_C"):
        v = _direct_membership_verdict(group, aa)
        return {"group": group, "types": [_typed_verdict("[U1]", v)], "overall": v}
    raise KeyError(f"unsupported group {group!r}")


def _typed_verdict(label, verdict):
    out = {"type": label, "verdict": verdict}
    if verdict == "yes":
        out["recipe"] = f"P = (v o T_{label}) . H"
    return out


def _u3_verdict(summary, split, d1, d2):
    """[U3]: the Jordan chains split between two disjoint invariant
    subspaces of dimensions d1 and d2."""
    if not summary.fully_split:
        return "unknown"
    chains = [(fd, length) for fd in split for length, count in fd.block_counts.items() for _ in range(count)]
    reach = {(0, 0)}
    for fd, length in chains:
        nxt = set()
        for a, b in reach:
            for take in range(0, length * fd.deg + 1, fd.deg):
                if a + take <= d1:
                    nxt.add((a + take, b))
                if b + take <= d2:
                    nxt.add((a, b + take))
        reach = nxt
    return "yes" if (d1, d2) in reach else "no"


def _tangent_u1_verdict(summary, split):
    if not summary.fully_split:
        return "unknown"
    for fd in _rational_eigen_factors(split):
        if any(_divisible_after_removal(fd, [s], split, 2) for s in fd.block_counts):
            return "yes"
    return "no"


def _semisimple(f):
    mp = min_poly(f)
    return poly_gcd(mp, mp.derivative()).degree == 0


def _unitary_spectrum(f):
    """r with char(f) = (x - tr f) r(x^2) if f is similar to diag(A, a)
    with A skew-Hermitian, else None: f semisimple, its trace an
    eigenvalue, the remaining spectrum purely imaginary pairs."""
    chi = char_poly(f)
    a = f.trace()
    lin = Poly([-a, 1])
    if not (chi % lin).is_zero():
        return None
    rest = chi.exact_div(lin)
    if any(rest.coeffs[i] != 0 for i in range(1, len(rest.coeffs), 2)):
        return None
    r = Poly(rest.coeffs[::2])
    # all roots of r must be real and <= 0 (they are -theta^2)
    if count_real_roots(r) != _count_distinct_roots(r):
        return None
    if count_real_roots(r, 0, _root_bound(r)) > 0:
        return None
    if not _semisimple(f):
        return None
    return r


def _unitary_verdict(aa):
    return "no" if _unitary_spectrum(aa.f) is None else "yes"


def _count_distinct_roots(r):
    return squarefree_part(r).degree


def _root_bound(r):
    bound = Fraction(1)
    lead = r.leading()
    for c in r.coeffs:
        cand = 1 + abs(c / lead)
        if cand > bound:
            bound = cand
    return bound


def _special_unitary_verdict(aa):
    f = aa.f
    r = _unitary_spectrum(f)
    if r is None or f.trace() != 0:
        return "no"
    roots = {}
    work = r
    for root, mult in rational_roots(r):
        roots[root] = mult
        for _ in range(mult):
            work = work.exact_div(Poly([-root, 1]))
    if work.degree > 0:
        return "unknown"
    # thetas are sqrt(-root); the imaginary parts cancel only within a
    # rational-square class (theta = c*sqrt(d), d squarefree)
    for sizes in _theta_classes(roots).values():
        if not _signed_cancellation_possible(sizes):
            return "no"
    return "yes"


def _sqrt_decompose(x: Fraction):
    """x = c^2 * d with d squarefree positive; returns (c, d) or (None, None)."""
    num, den = x.numerator, x.denominator
    if num <= 0:
        return None, None
    val = num * den  # x = (num*den)/den^2
    d = 1
    c2 = 1
    t = val
    i = 2
    while i * i <= t:
        while t % (i * i) == 0:
            t //= i * i
            c2 *= i
        if t % i == 0:
            t //= i
            d *= i
        i += 1
    d *= t
    return Fraction(c2, den), d


def _theta_classes(roots):
    classes = {}
    for root, mult in roots.items():
        if root == 0:
            continue
        c, d = _sqrt_decompose(-root)
        classes.setdefault(d, []).extend([c] * mult)
    return classes


def _signed_cancellation_possible(coeffs):
    """Exists signs eps with sum eps_i c_i = 0 (exact subset-sum)."""
    sums = {Fraction(0)}
    for c in coeffs:
        sums = {s + c for s in sums} | {s - c for s in sums}
    return Fraction(0) in sums


def _complex_verdict(aa):
    """f similar to [[A, v], [0, a]] with A complex-linear: remove one
    dimension at a real eigenvalue, all real-eigenvalue block counts even."""
    return _removal_verdict(aa.f, 2, lambda counts: [[s] for s in counts])


def _quaternionic_verdict(aa):
    def variants(counts):
        out = []
        if counts.get(1, 0) >= 3:
            out.append([1, 1, 1])
        for s in counts:
            if s >= 2 and counts.get(s, 0) >= 3 and counts.get(s - 1, 0) >= 1:
                out.append([s, s, s])
        return out

    return _removal_verdict(aa.f, 4, variants)


def _removal_verdict(f, modulus, variants):
    """yes if removing the blocks of one variant at a rational eigenvalue
    leaves every real factor's block counts divisible by modulus."""
    summary, split = primary_components(f)
    if any(c > 0 for _, _, c in summary.unsplit):
        return "unknown"
    real_factors = [fd for fd in split if fd.deg == 1 or count_real_roots(fd.phi) > 0]
    for fd in _rational_eigen_factors(split):
        if any(_divisible_after_removal(fd, r, real_factors, modulus) for r in variants(fd.block_counts)):
            return "yes"
    return "no"


def _direct_membership_verdict(group, aa):
    n = aa.n
    h = build_sl_C(n // 2) if group == "sl_C" else build_sp_C(n // 4)
    fs = obstruction_space(h)
    if fs.contains(aa.f.flatten()):
        return "yes"
    return "unknown"
