"""Workload query-mix: the per-f questions asked once the spaces exist.

Set-up builds six algebras and warms them through the README quickstart
calls.  The query pool has VARIANTS inputs for each slot: certificates,
refusals and flat certificates on each algebra, and the existence
deciders on rational-spectrum and generic f for n = 4..8, including a
small generic n = 8 slice whose spectral stall is a known defect.  A
pass runs the whole pool once in an order drawn from the seed, so every
pass has the same mix; the order decides which refusal of each algebra
meets the cold obstruction_space(h, v) cache entry.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import common

ALGEBRAS = [
    "gl_C:m=3", "sp:m=3", "u:p=3", "so:p=3,q=3", "product_gl:n=6,p=3",
    "lagrangian_symplectic:m=2",
]
OP_DEADLINE_S = 3.0
VARIANTS = 2


def groups(n):
    """Existence questions that are defined for ambient dimension n."""
    out = ["product"]
    if n % 2 == 0:
        out += ["tangent", "u", "su", "gl_C", "hpc"]
    if n % 4 == 0:
        out.append("gl_H")
    return out


# -- pool generation (run once at the seed commit by make_golden.py) ------------


def _combination(rng, subspace, m):
    v = [Fraction(0)] * (m * m)
    for b in subspace.basis:
        c = rng.randint(-2, 2)
        v = [x + c * y for x, y in zip(v, b)]
    return [v[r * m:(r + 1) * m] for r in range(m)]


def _generic(rng, m):
    return [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(m)]


def _rational_spectrum(rng, m):
    """P J P^-1 for an integer Jordan form J and a unimodular integer P."""
    from torsionlab.linalg import Mat

    jordan = [[0] * m for _ in range(m)]
    i = 0
    while i < m:
        size, lam = rng.randint(1, min(3, m - i)), rng.randint(-2, 2)
        for k in range(size):
            jordan[i + k][i + k] = lam
            if k:
                jordan[i + k - 1][i + k] = 1
        i += size
    p = Mat.identity(m)
    for _ in range(2 * m):
        a, b = rng.sample(range(m), 2)
        e = [[int(r == c) for c in range(m)] for r in range(m)]
        e[a][b] = rng.choice([-2, -1, 1, 2])
        p = p * Mat(e)
    return (p * Mat(jordan) * p.inverse()).data


def make_pool(seed, algebras):
    """Slots of query variants; `algebras` are the built ALGEBRAS."""
    from torsionlab import engine

    rng = random.Random(seed)
    slots = []

    def slot(name, make):
        slots.append({"slot": name, "variants": [make() for _ in range(VARIANTS)]})

    for idx, h in enumerate(algebras):
        m = h.n - 1
        F, K = engine.obstruction_space(h), engine.characteristic_subalgebra(h)
        slot(f"check-F/{ALGEBRAS[idx]}", lambda: {
            "op": "check", "algebra": idx, "expect": "certificate",
            "f": common.grid_to_json(_combination(rng, F, m))})
        slot(f"check-generic/{ALGEBRAS[idx]}", lambda: {
            "op": "check", "algebra": idx, "f": common.grid_to_json(_generic(rng, m))})
        slot(f"flat-k/{ALGEBRAS[idx]}", lambda: {
            "op": "flat", "algebra": idx, "expect": "certificate",
            "f": common.grid_to_json(_combination(rng, K, m))})
    for kind, dims, make_f in (
        ("rational", range(4, 9), _rational_spectrum),
        ("generic", range(4, 8), _generic),
    ):
        for n in dims:
            for g in groups(n):
                slot(f"exists-{kind}/{n}/{g}", lambda: {
                    "op": "exists", "group": g, "p": rng.randint(1, n - 1),
                    "f": common.grid_to_json(make_f(rng, n - 1))})
    slot("exists-generic/8/product", lambda: {
        "op": "exists", "group": "product", "p": rng.randint(1, 7),
        "f": common.grid_to_json(_generic(rng, 7))})
    return slots


# -- running queries ------------------------------------------------------------


def execute(algebras, q, f, spans=None):
    """One query; `spans` (traced runs) wraps the call in its layer span."""
    from torsionlab import engine, existence

    aa = engine.AlmostAbelian(f)
    if q["op"] == "check":
        name, call = "engine.check_torsion_free", lambda: engine.check_torsion_free(algebras[q["algebra"]], aa)
    elif q["op"] == "flat":
        name, call = "engine.flat_certificate", lambda: engine.flat_certificate(algebras[q["algebra"]], aa)
    elif q["group"] == "hpc":
        name, call = "existence.classify_hyperparacomplex", lambda: existence.classify_hyperparacomplex(aa)
    else:
        p = q["p"] if q["group"] == "product" else None
        name, call = "existence.admits_torsion_free", lambda: existence.admits_torsion_free(q["group"], aa, p=p)
    if spans is None:
        return call()
    with spans.span(name):
        return call()


def judge(algebras, q, f, result):
    """Failure reason for a completed query, or None."""
    from torsionlab.engine import Certificate

    if q.get("expect") == "certificate":
        if not isinstance(result, Certificate):
            return "expected a certificate"
        bad = common.recheck_certificate(algebras[q["algebra"]], f.data, result.nabla.gamma, q["op"] == "flat")
        if bad:
            return bad
    elif isinstance(result, Certificate):
        bad = common.recheck_certificate(algebras[q["algebra"]], f.data, result.nabla.gamma, False)
        if bad:
            return bad
    if q["digest"] is None:
        # stalled at the seed commit: no golden output to compare with
        return None
    if common.digest(result) != q["digest"]:
        return "result digest differs from the seed commit"
    return None


def is_unknown(result):
    verdicts = [result.get("overall"), result.get("verdict")]
    verdicts += [t["verdict"] for t in result.get("types", [])]
    return "unknown" in verdicts


class State:
    def __init__(self, seed, traced):
        common.import_torsionlab()
        from torsionlab import builders, engine

        golden = common.load_golden()["query_mix"]
        if golden["algebras"] != ALGEBRAS:
            raise common.BenchError("golden query pool was made for other algebras")
        self.slots = golden["slots"]
        self.algebras = []
        for shorthand in ALGEBRAS:
            if traced is None:
                h = builders.build(common.builder_spec(shorthand))
                engine.obstruction_space(h)
                engine.characteristic_subalgebra(h)
            else:
                spans = traced.spans
                with spans.span("builders.build"):
                    h = builders.build(common.builder_spec(shorthand))
                v0 = tuple(Fraction(1 if i == h.n - 1 else 0) for i in range(h.n))
                with spans.span("engine.characteristic_subalgebra"):
                    engine.characteristic_subalgebra(h)
                with spans.span("engine.connection_space"):
                    engine.connection_space(h)
                with spans.span("engine.torsion_maps"):
                    engine.torsion_maps(h, v0)
                with spans.span("engine.obstruction_space"):
                    engine.obstruction_space(h)
                d, f = engine.connection_space(h), engine.obstruction_space(h)
                traced.sizes[shorthand] = (d.dim, f.dim, common.max_bits([d, f]))
            self.algebras.append(h)
        self.rng = random.Random(seed)

    def queries(self):
        """The whole pool, in an order drawn from the seed."""
        ops = [(s["slot"], q) for s in self.slots for q in s["variants"]]
        self.rng.shuffle(ops)
        return ops


def setup(seed, traced=None):
    return State(seed, traced)


def _timed(state, q, f, spans=None):
    """(seconds, result or None, failure reason or None) under the deadline."""
    start = time.perf_counter()
    try:
        with common.deadline(OP_DEADLINE_S):
            result = execute(state.algebras, q, f, spans)
    except common.DeadlineExceeded:
        return time.perf_counter() - start, None, "deadline"
    except Exception as exc:  # an op that raises is a failure, not a crash
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, result, judge(state.algebras, q, f, result)


def run_pass(state, ops):
    for _, q in state.queries():
        f = common.mat_from_json(q["f"])
        elapsed, _, reason = _timed(state, q, f)
        ops.record(elapsed, reason)


def run_traced_pass(state, ops, traced):
    """Each query untraced and traced: spectral siblings, then its own span."""
    from torsionlab import polynomials, spectral

    spans = traced.spans
    for index, (slot, q) in enumerate(state.queries()):
        f = common.mat_from_json(q["f"])
        # alternate which copy runs first, so neither always meets the
        # refusal path's cold obstruction_space(h, v) entry
        if index % 2 == 0:
            plain, _, reason = _timed(state, q, f)
            ops.record(plain, reason)
        spans.op = slot
        if q["op"] == "exists":
            try:
                with common.deadline(OP_DEADLINE_S), spans.span("spectral.spectral_summary"):
                    spectral.spectral_summary(f)
            except common.DeadlineExceeded:
                pass
            with spans.span("polynomials.char_poly"):
                polynomials.char_poly(f)
        before = len(spans.records)
        elapsed, result, reason = _timed(state, q, f, spans)
        ops.record(elapsed, reason, traced=True)
        if index % 2 == 1:
            plain, _, plain_reason = _timed(state, q, f)
            ops.record(plain, plain_reason)
        traced.add_op(elapsed, sum(e - s for _, s, e, _ in spans.records[before:]), plain)
        if reason == "deadline":
            traced.counts["spectral.deadline_misses"] += 1
        if q["op"] == "exists" and result is not None:
            traced.counts["existence.ops"] += 1
            traced.counts["existence.unknown"] += is_unknown(result)

