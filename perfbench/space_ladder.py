"""Workload space-ladder: the cold `torsionlab space --with-bases` question.

One op is the in-process CLI call on one rung, with every package cache
cleared first.  A pass runs every rung once, in an order drawn from the
seed; the digest of each stdout must equal the seed commit's.  The
gl(7) and gl(8) rungs (about 30 s of the 55 s ladder on a 2-vCPU Xeon
VM) run only in the traced pass, which splits gl(8) into layers: with
them an untraced run would cost more than a run can spend.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from fractions import Fraction

import common

# engine-bound rungs, then rungs whose time goes to builders and profiles
RUNGS = [
    "gl:n=4", "gl:n=5", "gl:n=6", "gl:n=7", "gl:n=8",
    "sp:m=2", "sp:m=3", "sp:m=4",
    "gl_C:m=2", "gl_C:m=3", "gl_C:m=4",
    "so:p=4", "so:p=5", "so:p=6", "so:p=7", "so:p=8",
    "so:p=2,q=2", "so:p=3,q=1",
    "u:p=2", "u:p=3", "u:p=4", "u:p=1,q=1",
    "su:m=3", "sp_H:k=1", "delta_gl:m=3", "product_gl:n=6,p=3",
]
TRACE_ONLY = ("gl:n=7", "gl:n=8")
COVERAGE_RUNG = "gl:n=8"
ENGINE_LAYERS = [
    "characteristic_subalgebra", "tableau", "first_prolongation",
    "connection_space", "torsion_maps", "obstruction_space",
]


class State:
    def __init__(self, seed):
        common.import_torsionlab()
        from torsionlab import cli

        self.cli = cli
        self.golden = common.load_golden()["space"]
        missing = [r for r in RUNGS if r not in self.golden]
        if missing:
            raise common.BenchError(f"no golden digest for rungs {missing}")
        self.caches = common.package_caches()
        self.rng = random.Random(seed)


def setup(seed, traced=None):
    return State(seed)


def _cli_op(state, rung):
    """Run one cold CLI op; returns (seconds, failure reason or None)."""
    common.clear_caches(state.caches)
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            state.cli.main(["space", "--algebra", rung, "--with-bases"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that raises is a failure, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}"
    if common.sha256(out.getvalue()) != state.golden[rung]:
        return elapsed, "stdout digest differs from the seed commit"
    return elapsed, None


def _traced_op(state, rung, spans):
    """The same op as calls into each layer, in dependency order.

    Returns (seconds, failure reason or None, D, F).
    """
    from torsionlab import builders, engine, profiles, reporting

    common.clear_caches(state.caches)
    start = time.perf_counter()
    with spans.span("builders.build"):
        h = builders.build(common.builder_spec(rung))
    v0 = tuple(Fraction(1 if i == h.n - 1 else 0) for i in range(h.n))
    got = {}
    for layer in ENGINE_LAYERS:
        fn = getattr(engine, layer)
        with spans.span(f"engine.{layer}"):
            got[layer] = fn(h, v0) if layer == "torsion_maps" else fn(h)
    with spans.span("profiles.closed_form_F"):
        try:
            rule = profiles.closed_form_F(h)[1]
        except profiles.NoRuleApplies:
            rule = None
    with spans.span("reporting.space_json"):
        spaces = {
            "k_tilde": got["characteristic_subalgebra"],
            "tableau": got["tableau"],
            "K1": got["first_prolongation"],
            "D": got["connection_space"],
            "F": got["obstruction_space"],
        }
        report = {
            "algebra": h.name,
            "n": h.n,
            "dim_h": h.dim,
            "dims": {key: s.dim for key, s in spaces.items()},
            "closed_form_rule": rule,
            "bases": {key: reporting.subspace_to_json(s) for key, s in spaces.items()},
        }
        text = reporting.dumps(report) + "\n"
    elapsed = time.perf_counter() - start
    reason = None
    if common.sha256(text) != state.golden[rung]:
        reason = "traced replay digest differs from the seed commit"
    return elapsed, reason, spaces["D"], spaces["F"]


def run_pass(state, ops):
    order = [rung for rung in RUNGS if rung not in TRACE_ONLY]
    state.rng.shuffle(order)
    for rung in order:
        ops.record(*_cli_op(state, rung))


def run_traced_pass(state, ops, traced):
    """Every rung traced.  The gl(8) rung also runs untraced just before
    and just after, and the traced time is compared with the mean of the
    two, which cancels a steady drift in machine speed."""
    order = list(RUNGS)
    state.rng.shuffle(order)
    spans = traced.spans
    for rung in order:
        plain = []
        if rung == COVERAGE_RUNG:
            plain.append(_cli_op(state, rung))
        spans.op = rung
        before = len(spans.records)
        elapsed, reason, d, f = _traced_op(state, rung, spans)
        ops.record(elapsed, reason, traced=True)
        if rung == COVERAGE_RUNG:
            plain.append(_cli_op(state, rung))
        for seconds, plain_reason in plain:
            ops.record(seconds, plain_reason)
        untraced = sum(seconds for seconds, _ in plain) / len(plain) if plain else None
        covered = sum(e - s for _, s, e, _ in spans.records[before:])
        traced.add_op(elapsed, covered, untraced)
        if untraced is not None:
            traced.gl8_coverage = covered / untraced
        traced.sizes[rung] = (d.dim, f.dim, common.max_bits([d, f]))
