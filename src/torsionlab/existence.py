"""Existence of torsion-free structures of any hyperplane type.

What each group is lives in one table, ``GROUPS``: its dimension rule,
whether it takes a signature p, its hyperplane orbits [U_alpha] with
their straightening maps T_alpha and obstruction patterns, and its
verdict function.  ``orbit_catalog``, the pattern functions, the
deciders and ``admits_torsion_free`` read the table.

Every spectral verdict reads one ``spectral.Spectrum`` record of f,
built once per query.  In the rational-spectrum regime (characteristic
polynomial splitting into rational roots and quadratics) the deciders
construct certified bases from its invariant subspaces; outside it
verdicts degrade to an honest "unknown", and "no" is only returned
where the regime makes the search provably exhaustive.  Tangent [U1],
hyperparacomplex, gl_C and gl_H share one search, ``_block_removal``:
remove blocks at one rational eigenvalue, then is every block count
divisible by 2 (or 4)?  Every "yes + basis" is certified by conjugating
f and matching the claimed pattern entry by entry.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .builders import DEFAULT_MAX_N, build_sl_C, build_sp_C
from .engine import AlmostAbelian, obstruction_space
from .linalg import Mat, Subspace, entry_span, unit
from .polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    rational_split,
    squarefree_part,
)
from .spectral import chain_vectors, jordan_chains, primary_components


class OrbitType(NamedTuple):
    """A hyperplane orbit [U_alpha] of an existence group.

    frame(n, k) is a basis of U_alpha followed by a transversal;
    T_alpha sends that frame to the standard one, so T_alpha U_alpha =
    R^{n-1}.  The obstruction pattern in End(R^{n-1}) is spanned by E_ij
    wherever allowed(i, j, n - 1, k) and by E_ij + E_kl for each pair
    in tied(n - 1, k); an orbit whose F only the engine knows has none.
    k is the coordinate the frames turn on (``Group.index``).
    """

    label: str
    frame: Callable
    allowed: Callable | None = None
    tied: Callable = lambda n1, k: ()

    def predicate(self, n1, k):
        return lambda i, j: self.allowed(i, j, n1, k)

    def pattern(self, n, k) -> Subspace:
        return entry_span(n - 1, self.predicate(n - 1, k), self.tied(n - 1, k))


class Group(NamedTuple):
    """An existence group: n >= 2 divisible by modulus, a signature
    1 <= p <= n-1 when signature is set, its orbit types ([U1] first)
    and verdict(group, aa, p) -> (one verdict per orbit type, overall,
    detail or None).  builder (sl_C, sp_C) builds, from n // modulus,
    the algebra whose F decides membership.  The obstruction patterns
    are defined from n = least_pattern_n on."""

    name: str
    modulus: int
    signature: bool
    orbits: tuple
    verdict: Callable
    builder: Callable | None = None
    least_pattern_n: int = 2

    @property
    def rule(self):
        m = self.modulus
        return f"n >= {m} divisible by {m}" if m > 1 else "n >= 2"

    def check(self, n, p=None):
        """ValueError unless n is an int that fits the group, and p is an int
        1 <= p <= n-1 for a signature group and None for any other (a bool
        is not an int here)."""
        if type(n) is not int or n < 2 or n % self.modulus:
            raise ValueError(f"{self.name} structures need {self.rule}, got n = {n!r}")
        if not self.signature:
            if p is not None:
                raise ValueError(f"{self.name} structures take no signature p, got p = {p!r}")
        elif type(p) is not int or not 1 <= p <= n - 1:
            raise ValueError(f"{self.name} structures need a signature 1 <= p <= {n - 1}, got p = {p!r}")

    def index(self, n, p):
        """The coordinate the orbit frames turn on: p, else n/2."""
        return p if self.signature else n // 2


def existence_group(name) -> Group:
    """The table entry of a group; KeyError for any other name."""
    if name not in GROUPS:
        raise KeyError(f"unsupported group {name!r}; groups: {', '.join(GROUPS)}")
    return GROUPS[name]


class OrbitCatalog(NamedTuple):
    group: str
    reps: tuple


def orbit_catalog(group, n, p=None) -> OrbitCatalog:
    """Hyperplane-orbit representatives (U_alpha, T_alpha) per group."""
    g = existence_group(group)
    if not g.orbits:
        raise KeyError(f"group {group!r} has no orbit types")
    g.check(n, p)
    reps = []
    for o in g.orbits:
        basis, transversal = o.frame(n, g.index(n, p))
        t = Mat.from_cols([*basis, transversal]).inverse()
        reps.append({"label": o.label, "subspace": Subspace.span(n, basis), "T": t})
    return OrbitCatalog(group, tuple(reps))


def _coordinate_frame(n, k):
    """[U1]: the hyperplane R^{n-1} itself."""
    return [unit(n, i) for i in range(n - 1)], unit(n, n - 1)


def _skip_frame(n, k):
    """[U2]: the coordinate hyperplane x_k = 0 (coordinates from 1)."""
    return [unit(n, i) for i in range(n) if i != k - 1], unit(n, k - 1)


def _tilted_frame(n, k):
    """[U3]: x_k = x_n, spanned by e_i (i != k, n) and e_k + e_n."""
    tilt = tuple(a + b for a, b in zip(unit(n, k - 1), unit(n, n - 1)))
    return [unit(n, i) for i in range(n - 1) if i != k - 1] + [tilt], unit(n, n - 1)


def product_eigendims(sub: Subspace, n, p):
    """(d+, d-) = dims of the intersections with the P0 eigenspaces."""
    plus = Subspace.span(n, [unit(n, i) for i in range(p)])
    minus = Subspace.span(n, [unit(n, i) for i in range(p, n)])
    return sub.intersect(plus).dim, sub.intersect(minus).dim


def product_obstruction(n, p, type_index) -> Subspace:
    """The obstruction block pattern for product structures of type [U_k]."""
    return _obstruction("product", n, p, type_index)


def tangent_obstruction(n, type_index) -> Subspace:
    """The obstruction pattern for tangent structures of type [U_k]."""
    return _obstruction("tangent", n, None, type_index)


def _obstruction(name, n, p, type_index):
    g = GROUPS[name]
    g.check(n, p)
    if n < g.least_pattern_n:
        raise ValueError(f"{name} obstruction patterns need n >= {g.least_pattern_n}")
    if type(type_index) is not int or not 1 <= type_index <= len(g.orbits):
        raise ValueError(f"type must be an int 1..{len(g.orbits)}, got {type_index!r}")
    return g.orbits[type_index - 1].pattern(n, g.index(n, p))


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
        e = unit(n1, i)
        if not span.contains(e):
            out.append(e)
            span = Subspace.span(n1, out)
    return out


def decide_product(aa: AlmostAbelian, p):
    """Product structures of signature (p, q) always exist; construct when possible."""
    GROUPS["product"].check(aa.n, p)
    return _product_basis(primary_components(aa.f), p)


def _product_basis(spec, p):
    n1 = spec.f.rows
    u1, u2, _ = GROUPS["product"].orbits
    # [U1]: an invariant subspace of dimension q - 1 = n1 - p spanned by the
    # tail of the basis; [U2]: one of dimension p - 1 spanned by its head
    for orbit, d in ((u1, n1 - p), (u2, p - 1)):
        if d in spec.dims:
            w = list(spec.invariant_subspace(d).basis)
            completion = _complete_basis(w, n1)[len(w) :]
            found = _certified(spec.f, completion + w if orbit is u1 else w + completion, orbit, p)
            if found is not None:
                return found
    # existence is guaranteed by the classification of product types
    return {"verdict": "yes", "type": None, "basis": None, "rule": "existence-only"}


def _certified(f, cols, orbit, k):
    """The decider's answer for the basis cols if it puts f into the
    pattern of orbit, else None."""
    checked = _conjugated_pattern_check(f, cols, orbit.predicate(f.rows, k))
    if checked is None:
        return None
    s, fp = checked
    return {"verdict": "yes", "type": orbit.label, "basis": s, "conjugated": fp, "rule": "invariant-subspace"}


def decide_tangent(aa: AlmostAbelian):
    """Tangent structures always exist on even-dimensional algebras."""
    GROUPS["tangent"].check(aa.n)
    return _tangent_basis(primary_components(aa.f))


def _tangent_basis(spec):
    n1 = spec.f.rows
    m = (n1 + 1) // 2
    u2 = GROUPS["tangent"].orbits[1]
    for d in (m, m - 1):
        if d not in spec.dims:
            continue
        w = spec.invariant_subspace(d)
        if d == m:
            middle = list(w.basis[: m - 1])
            last = [w.basis[m - 1]]
        else:
            middle = list(w.basis)
            last = [_complete_basis(middle, n1)[len(middle)]]
        rest = _complete_basis(middle + last, n1)[len(middle) + 1 :]
        found = _certified(spec.f, rest + middle + last, u2, m)
        if found is not None:
            return found
    return {"verdict": "yes", "type": None, "basis": None, "rule": "existence-only"}


def _block_removal(factors, modulus, variants=lambda counts: [[s] for s in counts]):
    """The first (fd, removal) after which every block count of factors
    is divisible by modulus, or None.

    fd runs over the rational eigenvalues' factors; removal over
    variants(fd.block_counts), largest block first, each one block of
    every size it lists.  Removing a block of size s from fd leaves one
    of size s - 1.
    """
    for fd in factors:
        if fd.deg != 1:
            continue
        others = [other.block_counts for other in factors if other is not fd]
        for removal in sorted(variants(fd.block_counts), reverse=True):
            counts = dict(fd.block_counts)
            for s in removal:
                counts[s] -= 1
                if s > 1:
                    counts[s - 1] = counts.get(s - 1, 0) + 1
            if all(v % modulus == 0 for c in [counts, *others] for v in c.values()):
                return fd, removal
    return None


# -- hyperparacomplex classification ----------------------------------------


def classify_hyperparacomplex(aa: AlmostAbelian):
    """Normal-form search for hyperparacomplex structures.

    The normal form is f = [[A, 0, w1], [0, A, w2], [0, 0, a]] (case A).
    At a rational eigenvalue, the top of one Jordan chain of length s is
    the line, once every block count is even with that chain shortened
    to s - 1; the remaining chains pair off by factor and length into
    the two A blocks.

    The paper's five-block case B needs no search of its own:
    - Parity.  A case-B form removes the blocks [1, 1, 1], [s, s, 1] or
      [s, s, s] at one rational eigenvalue.  The case-A removal [1], [1]
      or [s] at the same eigenvalue leaves every block count with the
      same parity, so case A passes its parity test at that size.
    - Construction.  Once the parity test passes, case A builds.
      jordan_chains puts each chain's generator first, so the shortened
      chain spans an f-invariant subspace; the pairing succeeds by
      parity and gives each A block m - 1 vectors; two chains of the
      same factor and length have the same matrix of f (lambda I plus a
      shift, or the companion block of phi), so the two A blocks agree.
    "no" is only claimed when the search is exhaustive: every real
    eigenvalue rational, and n <= 8, the bound the case-B search had.
    There is no case without a real eigenvalue: n is even, so chi_f has
    odd degree n - 1 and a real root.
    """
    GROUPS["hpc"].check(aa.n)
    spec = primary_components(aa.f)
    # block counts inside unfactored pieces are unknown
    if spec.fully_split:
        found = _block_removal(spec.split, 2)
        if found is not None:
            fd, (s,) = found
            return _construct_case_a(aa.f, spec.split, fd, s, aa.n // 2)
        if aa.n <= 8:
            return {"verdict": "no", "rule": "exhaustive-normal-form-search"}
    return {"verdict": "unknown", "rule": "outside-rational-spectral-regime"}


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
    """The case-A form whose line is the top of an s-chain of fd.

    The caller's parity test makes every (factor, length) group of the
    other chains even; classify_hyperparacomplex says why the form then
    always builds, so a failure is a violated invariant.
    """
    chains = jordan_chains(f, fd)
    idx = next(i for i, ch in enumerate(chains) if len(ch) == s)
    top = chains[idx][0]
    # the top of the chosen chain is the line; the rest of it is paired
    shortened = chains[:idx] + ([chains[idx][1:]] if s > 1 else []) + chains[idx + 1 :]
    v1, v2 = [], []
    for other in split:
        by_len = {}
        for ch in shortened if other is fd else jordan_chains(f, other):
            by_len.setdefault(len(ch), []).append(ch)
        for _, group in sorted(by_len.items()):
            for c1, c2 in zip(group[::2], group[1::2]):
                v1.extend(chain_vectors(f, other, c1))
                v2.extend(chain_vectors(f, other, c2))
    mm = m - 1
    checked = None
    if len(v1) == len(v2) == mm:
        checked = _conjugated_pattern_check(f, v1 + v2 + [top], _case_a_pattern(m))
    if checked is None:
        raise AssertionError("the case-A pattern failed after its parity test")
    s_mat, fp = checked
    a_block = fp.submatrix(range(mm), range(mm))
    if a_block != fp.submatrix(range(mm, 2 * mm), range(mm, 2 * mm)):
        raise AssertionError("the case-A blocks differ after its parity test")
    return {
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


def hpc_flatness(aa: AlmostAbelian, structure_data):
    """Flatness of a verified case-A hyperparacomplex structure.

    It is flat iff mu*w1 + lam*w2 is zero or an eigenvector of A with
    eigenvalue 2a; the failing vector is the witness.  The classifier
    returns case-A forms only: every f with a case-B form also has a
    case-A form (see classify_hyperparacomplex), so the paper's case-B
    structures, which are always flat, never reach this test.
    """
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
    """Per-type verdicts for the groups of ``GROUPS``.

    A positive verdict carries the adapted-frame recipe
    P = (v o T_alpha) . H with T_alpha the listed straightening map.
    """
    g = existence_group(group)
    g.check(aa.n, p)
    verdicts, overall, detail = g.verdict(g, aa, p)
    out = {"group": group}
    if g.orbits:
        out["types"] = [_typed_verdict(o.label, v) for o, v in zip(g.orbits, verdicts)]
    out["overall"] = overall
    if detail is not None:
        out["detail"] = detail
    return out


def _product_verdicts(group, aa, p):
    spec = primary_components(aa.f)
    d1, d2 = p - 1, aa.n - p - 1
    verdicts = (_reached(spec, d2), _reached(spec, d1), _u3_verdict(spec, d1, d2))
    return verdicts, "yes", _product_basis(spec, p)


def _tangent_verdicts(group, aa, p):
    m = aa.n // 2
    spec = primary_components(aa.f)
    verdicts = (_tangent_u1_verdict(spec), _reached(spec, m, m - 1))
    return verdicts, "yes", _tangent_basis(spec)


def _reached(spec, *wanted):
    """yes if f has an invariant subspace of a wanted dimension; otherwise
    no, or unknown where the rational search is not exhaustive."""
    return "yes" if any(d in spec.dims for d in wanted) else "no" if spec.exhaustive else "unknown"


def _hpc_verdicts(group, aa, p):
    res = classify_hyperparacomplex(aa)
    return (), res["verdict"], res


def _one_orbit(decide):
    """A one-orbit group: decide(group, aa) is its [U1] and overall verdict."""

    def verdict(group, aa, p):
        v = decide(group, aa)
        return (v,), v, None

    return verdict


def _membership_verdict(group, aa):
    """yes when f lies in F of the group's algebra, else unknown."""
    fs = obstruction_space(_standard_algebra(group.builder, aa.n // group.modulus))
    return "yes" if fs.contains(aa.f.flatten()) else "unknown"


@lru_cache(maxsize=DEFAULT_MAX_N // 2 + DEFAULT_MAX_N // 4)  # sl_C(m), sp_C(m) for every n up to the default cap
def _standard_algebra(builder, m):
    return builder(m)  # built once; it keeps its own F


def _typed_verdict(label, verdict):
    out = {"type": label, "verdict": verdict}
    if verdict == "yes":
        out["recipe"] = f"P = (v o T_{label}) . H"
    return out


def _u3_verdict(spec, d1, d2):
    """[U3]: the Jordan chains split between two disjoint invariant
    subspaces of dimensions d1 and d2."""
    if not spec.fully_split:
        return "unknown"
    chains = [(fd, length) for fd in spec.split for length, count in fd.block_counts.items() for _ in range(count)]
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
    return "yes" if (d1, d2) in reach else "no" if spec.exhaustive else "unknown"


def _tangent_u1_verdict(spec):
    if not spec.fully_split:
        return "unknown"
    return "no" if _block_removal(spec.split, 2) is None else "yes"


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
    # all roots of r must be real and <= 0 (they are -theta^2): its
    # distinct roots in (-inf, 0] number deg sqf(r)
    if count_real_roots(r, None, 0) != squarefree_part(r).degree:
        return None
    # f is semisimple iff the squarefree part of its characteristic
    # polynomial annihilates it
    return r if squarefree_part(chi).eval_mat(f).is_zero() else None


def _unitary_verdict(group, aa):
    return "no" if _unitary_spectrum(aa.f) is None else "yes"


def _special_unitary_verdict(group, aa):
    f = aa.f
    r = _unitary_spectrum(f)
    if r is None or f.trace() != 0:
        return "no"
    roots, rest = rational_split(r)
    if rest.degree > 0:
        return "unknown"
    for sizes in _theta_classes(roots).values():
        if not _signed_cancellation_possible(sizes):
            return "no"
    return "yes"


def _theta_classes(roots):
    """The thetas sqrt(-root) of the (root, multiplicity) pairs, grouped by
    rational-square class and given as rational multiples of the first
    theta of their class; imaginary parts cancel only within a class."""
    classes = {}
    for root, mult in roots:
        if root == 0:
            continue
        base = next((b for b in classes if _rational_sqrt(-root / b) is not None), -root)
        classes.setdefault(base, []).extend([_rational_sqrt(-root / base)] * mult)
    return classes


def _rational_sqrt(x: Fraction):
    """The rational square root of x >= 0, or None when it is irrational."""
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None


def _signed_cancellation_possible(coeffs):
    """Exists signs eps with sum eps_i c_i = 0 (exact subset-sum)."""
    sums = {Fraction(0)}
    for c in coeffs:
        sums = {s + c for s in sums} | {s - c for s in sums}
    return Fraction(0) in sums


def _complex_verdict(group, aa):
    """f similar to [[A, v], [0, a]] with A complex-linear: remove one
    dimension at a real eigenvalue, all real-eigenvalue block counts even."""
    return _removal_verdict(aa.f, 2)


def _quaternionic_verdict(group, aa):
    return _removal_verdict(aa.f, 4, _triple_blocks)


def _triple_blocks(counts):
    """gl_H's removals: three 1-blocks, or three s-blocks beside an (s-1)-block."""
    out = []
    if counts.get(1, 0) >= 3:
        out.append([1, 1, 1])
    for s in counts:
        if s >= 2 and counts.get(s, 0) >= 3 and counts.get(s - 1, 0) >= 1:
            out.append([s, s, s])
    return out


def _removal_verdict(f, modulus, *variants):
    """yes if removing the blocks of one variant at a rational eigenvalue
    leaves every real factor's block counts divisible by modulus; unknown
    when an unsplit piece has a real root."""
    spec = primary_components(f)
    if any(count_real_roots(q) > 0 for q, _ in spec.unsplit):
        return "unknown"
    real_factors = [fd for fd in spec.split if fd.deg == 1 or count_real_roots(fd.phi) > 0]
    return "no" if _block_removal(real_factors, modulus, *variants) is None else "yes"


# -- the existence groups -----------------------------------------------------

_U1 = OrbitType("[U1]", _coordinate_frame)

GROUPS = {
    group.name: group
    for group in (
        Group("product", 1, True, (
            OrbitType("[U1]", _coordinate_frame, lambda i, j, n1, p: not (i < p and j >= p)),
            OrbitType("[U2]", _skip_frame, lambda i, j, n1, p: not (i >= p - 1 and j < p - 1)),
            OrbitType(
                "[U3]",
                _tilted_frame,
                lambda i, j, n1, p: j == n1 - 1
                or (i < p - 1 and j < p - 1)
                or (p - 1 <= i < n1 - 1 and p - 1 <= j < n1 - 1),
            ),
        ), _product_verdicts),
        Group("tangent", 2, False, (
            OrbitType(
                "[U1]",
                _coordinate_frame,
                lambda i, j, n1, m: j == m - 1 or (i >= m and j < m - 1),
                lambda n1, m: [((i, j), (m + i, m + j)) for i in range(m - 1) for j in range(m - 1)],
            ),
            OrbitType("[U2]", _skip_frame, lambda i, j, n1, m: not (i < m - 1 and m - 1 <= j < n1 - 1)),
        ), _tangent_verdicts, least_pattern_n=4),
        Group("hpc", 2, False, (), _hpc_verdicts),
        Group("gl_C", 2, False, (_U1,), _one_orbit(_complex_verdict)),
        Group("sl_C", 2, False, (_U1,), _one_orbit(_membership_verdict), builder=build_sl_C),
        Group("sp_C", 4, False, (_U1,), _one_orbit(_membership_verdict), builder=build_sp_C),
        Group("u", 2, False, (_U1,), _one_orbit(_unitary_verdict)),
        Group("su", 2, False, (_U1,), _one_orbit(_special_unitary_verdict)),
        Group("gl_H", 4, False, (_U1,), _one_orbit(_quaternionic_verdict)),
    )
}
