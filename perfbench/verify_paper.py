"""Workload verify-paper: `torsionlab verify-paper --format json`.

Each op runs the CLI in a fresh process, so every cache starts cold.
The traced op runs this file as a child process instead: it calls the
ten targets in CHECKS order, each in its own span, rebuilds the same
stdout, and then times catalog(), crosscheck, applicable_rules and
classify_low_rank as sibling spans outside the op.  The workload has
no generated inputs; the seed is unused.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import common

OP_TIMEOUT_S = 150


class State:
    def __init__(self):
        common.import_torsionlab()
        self.golden = common.load_golden()["verify_paper"]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )


def setup(seed, traced=None):
    return State()


def _spawn(state, argv):
    """(seconds, stdout or None, failure reason or None) of one child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=common.ROOT, env=state.env,
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "deadline"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return elapsed, None, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return elapsed, proc.stdout, None


def _cli_op(state):
    elapsed, out, reason = _spawn(state, ["-m", "torsionlab.cli", "verify-paper", "--format", "json"])
    if reason is None and common.sha256(out) != state.golden:
        reason = "stdout digest differs from the seed commit"
    return elapsed, reason


def run_pass(state, ops):
    ops.record(*_cli_op(state))


def run_traced_pass(state, ops, traced):
    plain, reason = _cli_op(state)
    ops.record(plain, reason)
    _, out, reason = _spawn(state, [__file__])
    if reason is not None:
        ops.record(0.0, reason, traced=True)
        return
    child = json.loads(out.splitlines()[-1])
    if child["digest"] != state.golden:
        reason = "traced replay digest differs from the seed commit"
    ops.record(child["elapsed"], reason, traced=True)
    for name, seconds in child["spans"]:
        traced.spans.add(name, seconds, "verify-paper")
    traced.add_op(child["elapsed"], child["covered"], plain)
    traced.sizes.update({name: tuple(size) for name, size in child["sizes"].items()})


def _child():
    start = time.perf_counter()
    common.import_torsionlab()
    from torsionlab import builders, ellipticity, engine, profiles, reporting, verify

    spans = common.Spans()
    results = []
    for name, fn in verify.CHECKS:
        with spans.span(f"verify.{name}"):
            results.extend(fn())
    text = reporting.dumps({"checks": results, "passed": sum(r["ok"] for r in results), "total": len(results)}) + "\n"
    elapsed = time.perf_counter() - start
    covered = sum(end - begin for _, begin, end, _ in spans.records)

    with spans.span("builders.catalog"):
        algebras = builders.catalog()
    for h in algebras:
        with spans.span("profiles.crosscheck"):
            profiles.crosscheck(h)
    for h in algebras:
        with spans.span("profiles.applicable_rules"):
            profiles.applicable_rules(h)
    low_rank = [builders.build(common.builder_spec(s)) for s in ("gl_H:k=1", "sp_H:k=1")]
    low_rank += [h for h in algebras if "g" in h.structures]
    for h in low_rank:
        with spans.span("ellipticity.classify_low_rank"):
            ellipticity.classify_low_rank(h, 2)
    sizes = {}
    for h in algebras:
        d, f = engine.connection_space(h), engine.obstruction_space(h)
        sizes[h.name] = (d.dim, f.dim, common.max_bits([d, f]))
    print(json.dumps({
        "elapsed": elapsed,
        "covered": covered,
        "digest": common.sha256(text),
        "spans": [(name, end - begin) for name, begin, end, _ in spans.records],
        "sizes": sizes,
    }))


if __name__ == "__main__":
    _child()
