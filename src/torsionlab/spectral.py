"""Exact spectral analysis of rational endomorphisms.

Squarefree decomposition with Sturm real-root counts gives the
spectral summary; when the characteristic polynomial splits into
rational-root linear factors and quadratics, the primary decomposition,
Jordan block counts and explicit chain bases are computed exactly over
Q, which is what the existence deciders need to build invariant
subspaces and doubled ("A, A") block structures.  Outside that regime
callers fall back to honest "unknown" verdicts.
"""

from __future__ import annotations

from .linalg import Mat, Subspace, kernel
from .polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    quadratic_rational_factors,
    rational_roots,
    squarefree_decomposition,
)


class SpectralSummary:
    """Squarefree structure of char(f) with exact real-root counts."""

    __slots__ = ("poly", "squarefree", "split_factors", "unsplit", "fully_split")

    def __init__(self, poly, squarefree, split_factors, unsplit):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "squarefree", tuple(squarefree))
        object.__setattr__(self, "split_factors", tuple(split_factors))
        object.__setattr__(self, "unsplit", tuple(unsplit))
        object.__setattr__(self, "fully_split", not unsplit)

    def __setattr__(self, *a):
        raise AttributeError("SpectralSummary is immutable")


def spectral_summary(f: Mat) -> SpectralSummary:
    chi = char_poly(f)
    sq = []
    split_factors = []
    unsplit = []
    for q, mult in squarefree_decomposition(chi):
        sq.append((q, mult, count_real_roots(q)))
        work = q
        for root, _ in rational_roots(q):
            split_factors.append((Poly([-root, 1]), mult))
            work = work.exact_div(Poly([-root, 1]))
        if work.degree > 2:
            quads, work = quadratic_rational_factors(work)
            for quad in quads:
                split_factors.append((quad, mult))
        if work.degree == 2:
            split_factors.append((work.monic(), mult))
        elif work.degree > 2:
            unsplit.append((work.monic(), mult, count_real_roots(work)))
    return SpectralSummary(chi, sq, split_factors, unsplit)


class FactorData:
    """Primary component data for one irreducible factor (degree 1 or 2)."""

    __slots__ = ("phi", "mult", "deg", "ladder", "block_counts", "component")

    def __init__(self, phi, mult, ladder, block_counts):
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "deg", phi.degree)
        object.__setattr__(self, "ladder", tuple(ladder))
        object.__setattr__(self, "block_counts", dict(block_counts))
        object.__setattr__(self, "component", ladder[-1] if ladder else None)

    def __setattr__(self, *a):
        raise AttributeError("FactorData is immutable")

    @property
    def dim(self):
        return self.ladder[-1].dim if self.ladder else 0


def _kernel_ladder(f: Mat, phi: Poly, mult: int):
    """ker phi(f)^k for k = 1..mult, up to where the dimension stops growing."""
    nmat = phi.eval_mat(f)
    power = Mat.identity(f.rows)
    ladder = []
    for _ in range(mult):
        power = power * nmat
        ker = kernel(power)
        if ker.dim == (ladder[-1].dim if ladder else 0):
            break
        ladder.append(ker)
    return ladder


def factor_data(f: Mat, phi: Poly, mult: int) -> FactorData:
    ladder = _kernel_ladder(f, phi, mult)
    dims = [0] + [k.dim for k in ladder]
    while len(dims) < mult + 2:
        dims.append(dims[-1])
    counts = {}
    deg = phi.degree
    for j in range(1, len(dims) - 1):
        c = (2 * dims[j] - dims[j - 1] - dims[j + 1]) // deg
        if c:
            counts[j] = c
    return FactorData(phi, mult, ladder, counts)


def primary_components(f: Mat):
    """FactorData for every split factor, plus unsplit leftovers."""
    summary = spectral_summary(f)
    split = [factor_data(f, phi, mult) for phi, mult in summary.split_factors]
    return summary, split


def jordan_chains(f: Mat, fd: FactorData):
    """Chain generators for one primary component.

    Each chain is a list of levels [g, N g, ..., N^{len-1} g]; for a
    quadratic factor a level spans {w, f w} over Q.
    """
    n = f.rows
    nmat = fd.phi.eval_mat(f)
    s = len(fd.ladder)
    chains = []
    ambient_added = Subspace.zero(n)
    for j in range(s, 0, -1):
        lower = fd.ladder[j - 2] if j >= 2 else Subspace.zero(n)
        pushed = []
        for ch in chains:
            if len(ch) > j:
                pushed.append(ch[len(ch) - j])  # level-j vector of a taller chain
        avoid_vectors = list(lower.basis) + [v for v in pushed]
        if fd.deg == 2:
            avoid_vectors += [f.matvec(v) for v in pushed]
        avoid = Subspace.span(n, avoid_vectors)
        for cand in fd.ladder[j - 1].basis:
            if avoid.contains(cand):
                continue
            chain = [tuple(cand)]
            for _ in range(j - 1):
                chain.append(nmat.matvec(chain[-1]))
            chains.append(chain)
            new_vs = list(avoid.basis) + [cand]
            if fd.deg == 2:
                new_vs.append(f.matvec(cand))
            avoid = Subspace.span(n, new_vs)
    total = sum(len(c) for c in chains) * fd.deg
    if total != fd.dim:
        raise AssertionError("chain decomposition lost dimensions")
    return chains


def chain_vectors(f: Mat, fd: FactorData, chain, levels=None):
    """Flat Q-basis of (a tail of) one chain: deepest levels first."""
    if levels is None:
        levels = len(chain)
    out = []
    for lvl in chain[len(chain) - levels :]:
        out.append(tuple(lvl))
        if fd.deg == 2:
            out.append(tuple(f.matvec(lvl)))
    return out


def _invariant_parts(f: Mat, summary: SpectralSummary, split):
    """(allowed dimensions, source) for every primary component.

    Inside a linear-factor component any dimension is reachable, inside
    a quadratic component any even one, inside an unsplit piece only
    whole kernel flags; the source is the FactorData or the flags by
    dimension.  A multiplicity-1 piece q has the flags 0 and deg q, and
    its source is q: invariant_subspace builds ker q(f) if it picks it.
    """
    parts = [(range(0, fd.dim + 1, fd.deg), fd) for fd in split]
    for q, mult, _ in summary.unsplit:
        if mult == 1:
            parts.append(([0, q.degree], q))
            continue
        flags = {0: Subspace.zero(f.rows)}
        flags.update((k.dim, k) for k in _kernel_ladder(f, q, mult))
        parts.append((list(flags), flags))
    return parts


def _reachable(parts):
    """Every reachable total dimension -> the first choice per part reaching it."""
    reach = {0: []}
    for allowed, _ in parts:
        nxt = {}
        for total, picks in reach.items():
            for d in allowed:
                nxt.setdefault(total + d, picks + [d])
        reach = nxt
    return reach


def achievable_invariant_dims(f: Mat, summary: SpectralSummary, split):
    """Dimensions of the f-invariant subspaces built from kernel flags.

    (summary, split) is primary_components(f).  The set is exact when
    summary.fully_split; otherwise it is a sound subset.
    """
    return set(_reachable(_invariant_parts(f, summary, split)))


def invariant_subspace(f: Mat, summary: SpectralSummary, split, d_target: int):
    """An f-invariant subspace of exactly d_target dimensions, or None.

    (summary, split) is primary_components(f); the subspace is built
    from the choice of achievable_invariant_dims that reaches d_target.
    """
    n = f.rows
    if d_target == 0:
        return Subspace.zero(n)
    parts = _invariant_parts(f, summary, split)
    choice = _reachable(parts).get(d_target)
    if choice is None:
        return None
    vectors = []
    for (_, source), want in zip(parts, choice):
        if want == 0:
            continue
        if isinstance(source, Poly):
            vectors.extend(_kernel_ladder(f, source, 1)[0].basis)
            continue
        if not isinstance(source, FactorData):
            vectors.extend(source[want].basis)
            continue
        remaining = want // source.deg
        for chain in jordan_chains(f, source):
            if remaining == 0:
                break
            take = min(remaining, len(chain))
            vectors.extend(chain_vectors(f, source, chain, take))
            remaining -= take
        if remaining:
            raise AssertionError("component cannot supply requested dimensions")
    sub = Subspace.span(n, vectors)
    if sub.dim != d_target:
        raise AssertionError("invariant subspace has wrong dimension")
    for b in sub.basis:
        if not sub.contains(f.matvec(b)):
            raise AssertionError("constructed subspace is not invariant")
    return sub
