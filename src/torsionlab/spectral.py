"""Exact spectral analysis of rational endomorphisms.

``primary_components(f)`` returns one immutable record, ``Spectrum``,
of the primary decomposition of f over Q as far as rational roots and
quadratics split chi_f: the ``FactorData`` of each factor of degree 1
or 2 (kernel ladder, Jordan block counts, and from them explicit chain
bases) and the leftover factors of higher degree.  The existence
deciders read four things from it: ``fully_split``, ``exhaustive``
(the rational invariant subspaces are all the real ones), ``dims``
(the invariant-subspace dimensions it reaches) and
``invariant_subspace(d)``.  The subset-sum table behind the last two
is a ``memo`` of the record, built on first use.  Outside the split regime
callers fall back to honest "unknown" verdicts.
"""

from __future__ import annotations

from .linalg import Mat, Subspace, Value, kernel, memo
from .polynomials import (
    Poly,
    char_poly,
    count_real_roots,
    quadratic_rational_factors,
    rational_split,
    squarefree_decomposition,
)


def spectral_summary(f: Mat):
    """(split, unsplit): the monic factors of chi_f with their
    multiplicities, split holding those of degree 1 or 2 and unsplit
    the leftovers that rational roots and quadratics do not split."""
    split, unsplit = [], []
    for q, mult in squarefree_decomposition(char_poly(f)):
        roots, work = rational_split(q)
        split.extend((Poly([-root, 1]), mult) for root, _ in roots)
        if work.degree >= 2:
            quads, work = quadratic_rational_factors(work)
            split.extend((quad, mult) for quad in quads)
        if work.degree > 0:
            unsplit.append((work, mult))
    return split, unsplit


class FactorData(Value):
    """Primary component data for one irreducible factor phi (degree 1
    or 2): the ladder ker phi(f)^k and the Jordan block counts by size."""

    __slots__ = ("phi", "deg", "ladder", "block_counts")

    def __init__(self, phi, ladder, block_counts):
        self._init(phi=phi, deg=phi.degree, ladder=tuple(ladder), block_counts=dict(block_counts))

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
    return FactorData(phi, ladder, counts)


def primary_components(f: Mat) -> Spectrum:
    """The Spectrum record of f."""
    split, unsplit = spectral_summary(f)
    return Spectrum(f, [factor_data(f, phi, mult) for phi, mult in split], unsplit)


class Spectrum(Value):
    """The primary decomposition of f: split holds the FactorData of each
    factor of degree 1 or 2, unsplit the leftover (q, multiplicity)."""

    __slots__ = ("f", "split", "unsplit", "_memo")

    def __init__(self, f, split, unsplit):
        self._init(f=f, split=tuple(split), unsplit=tuple(unsplit), _memo={})

    @property
    def fully_split(self):
        return not self.unsplit

    @property
    def exhaustive(self):
        """Whether the rational invariant subspaces are all the real ones: the
        spectrum splits, and no split quadratic has two real roots, which over
        R would give two eigenlines and so odd dimensions as well."""
        return self.fully_split and all(fd.deg == 1 or count_real_roots(fd.phi) != 2 for fd in self.split)

    @property
    def dims(self):
        """Dimensions of the f-invariant subspaces built from kernel flags:
        exact when fully_split, otherwise a sound subset."""
        return self._parts_and_reach()[1].keys()

    @memo
    def _parts_and_reach(self):
        parts = _invariant_parts(self)
        return parts, _reachable(parts)

    def invariant_subspace(self, d):
        """An f-invariant subspace of exactly d dimensions, built from the
        choice per part that reaches d; None when d is not in dims."""
        f, n = self.f, self.f.rows
        parts, reach = self._parts_and_reach()
        choice = reach.get(d)
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
        if sub.dim != d:
            raise AssertionError("invariant subspace has wrong dimension")
        for b in sub.basis:
            if not sub.contains(f.matvec(b)):
                raise AssertionError("constructed subspace is not invariant")
        return sub


def jordan_chains(f: Mat, fd: FactorData):
    """Chain generators for one primary component.

    Each chain is a list of levels [g, N g, ..., N^{len-1} g]; for a
    quadratic factor a level spans {w, f w} over Q.
    """
    n = f.rows
    nmat = fd.phi.eval_mat(f)
    s = len(fd.ladder)
    chains = []
    for j in range(s, 0, -1):
        lower = fd.ladder[j - 2] if j >= 2 else Subspace.zero(n)
        pushed = [ch[len(ch) - j] for ch in chains if len(ch) > j]  # level-j vectors of taller chains
        avoid_vectors = list(lower.basis) + pushed
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


def _invariant_parts(spec: Spectrum):
    """(allowed dimensions, source) for every primary component.

    Inside a linear-factor component any dimension is reachable, inside
    a quadratic component any even one, inside an unsplit piece only
    whole kernel flags; the source is the FactorData or the flags by
    dimension.  A multiplicity-1 piece q has the flags 0 and deg q, and
    its source is q: invariant_subspace builds ker q(f) if it picks it.
    """
    parts = [(range(0, fd.dim + 1, fd.deg), fd) for fd in spec.split]
    for q, mult in spec.unsplit:
        if mult == 1:
            parts.append(([0, q.degree], q))
            continue
        flags = {0: Subspace.zero(spec.f.rows)}
        flags.update((k.dim, k) for k in _kernel_ladder(spec.f, q, mult))
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
