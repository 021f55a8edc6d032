"""torsionlab benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports torsionlab from src/.
The workload runs whole passes (a space-ladder pass is the full ladder,
a query-mix pass the whole query pool, a verify-paper pass one
CLI run) until at least S seconds have gone by.  The last stdout line
is one JSON object: with --trace 0 the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics, from a traced
run that times calls into each layer's public functions and also runs
some ops untraced, for the tracing overhead.
Every output is checked against digests from the seed commit
(perfbench/golden.json, made by perfbench/make_golden.py).
"""

import time

# set-up time is counted from here, before torsionlab is imported
START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import query_mix  # noqa: E402
import space_ladder  # noqa: E402
import verify_paper  # noqa: E402

WORKLOADS = {"space-ladder": space_ladder, "query-mix": query_mix, "verify-paper": verify_paper}
SETUP_SAMPLES = 3


class Ops:
    """Latency and outcome of every op; traced repeats are kept apart."""

    def __init__(self):
        self.plain = []
        self.traced = []
        self.ok = 0
        self.failures = collections.Counter()

    def record(self, seconds, reason, traced=False):
        (self.traced if traced else self.plain).append(seconds)
        if reason:
            self.failures[reason] += 1
        elif not traced:
            self.ok += 1

    @property
    def attempted(self):
        return len(self.plain) + len(self.traced)


class Traced:
    """Spans and counts of a traced run."""

    def __init__(self):
        self.spans = common.Spans()
        self.walls, self.covered = [], []  # per traced op
        self.pairs = []  # (traced, untraced) seconds of ops run both ways
        self.sizes = {}  # algebra -> (dim D, dim F, max bits of their bases)
        self.counts = collections.Counter()
        self.gl8_coverage = 0.0

    def add_op(self, wall, covered, plain=None):
        """A traced op: its wall time, the part its layer spans cover and,
        if it was also run untraced, that run's time."""
        self.walls.append(wall)
        self.covered.append(covered)
        if plain is not None:
            self.pairs.append((wall, plain))

    def metrics(self, passes):
        """Layer seconds per pass (set-up spans once), counts and ratios."""
        seconds = collections.Counter()
        for name, start, end, op in self.spans.records:
            seconds[name] += (end - start) / (1 if op is None else passes)
        sizes = list(self.sizes.values())
        exist = self.counts["existence.ops"]
        return {
            "seconds": seconds,
            "linalg.D.dim": sum(s[0] for s in sizes),
            "linalg.F.dim": sum(s[1] for s in sizes),
            "linalg.basis.max_bits": max((s[2] for s in sizes), default=0),
            "spectral.deadline_misses": self.counts["spectral.deadline_misses"] / passes,
            "existence.unknown_ratio": self.counts["existence.unknown"] / exist if exist else 0.0,
            "trace.coverage": sum(self.covered) / sum(self.walls) if self.walls else 0.0,
            "trace.overhead": (
                statistics.median(t for t, _ in self.pairs) / statistics.median(p for _, p in self.pairs)
                if self.pairs else 0.0
            ),
            "trace.gl8_coverage": self.gl8_coverage,
        }


def setup_probe(args):
    """Set-up time of a fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.splitlines()[-1])


def end_to_end(args, ops, setup_s):
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    busy = sum(ops.plain)
    print(f"# setup samples: {len(setups)}; op samples: {len(ops.plain)}; busy {busy:.3f} s")
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops.ok / busy,
        "op_p50_ms": 1000 * statistics.median(ops.plain),
        "op_p90_ms": 1000 * common.quantile(ops.plain, 0.9),
        "ok_ratio": ops.ok / len(ops.plain),
        "peak_rss_mb": usage / 1024,
    }


def per_layer(names, traced, passes):
    values = traced.metrics(passes)
    out = {}
    for name in names:
        if name.endswith(".s"):
            out[name] = float(values["seconds"][name[:-2]])
        elif name in values:
            out[name] = values[name]
        else:
            raise common.BenchError(f"per-layer metric {name!r} is not measured")
    print(f"# traced ops: {len(traced.walls)}, {len(traced.pairs)} also untraced; passes: {passes}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
        workload = WORKLOADS[args.workload]
        traced = Traced() if args.trace else None
        state = workload.setup(args.seed, traced)
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        ops = Ops()
        passes = 0
        phase_start = time.perf_counter()
        while passes == 0 or time.perf_counter() - phase_start < args.seconds:
            if traced is None:
                workload.run_pass(state, ops)
            else:
                workload.run_traced_pass(state, ops, traced)
            passes += 1
        if traced is None:
            listed = spec["end_to_end"]
            values = end_to_end(args, ops, setup_s)
        else:
            listed = spec["per_layer"]
            values = per_layer([m["name"] for m in listed], traced, passes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    except (common.BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    failed = sum(ops.failures.values())
    print(f"# {args.workload}: {ops.attempted} ops, {failed} failed, fail_ratio "
          f"{failed / ops.attempted:.4f}, passes {passes}")
    for reason, count in sorted(ops.failures.items()):
        print(f"#   failed {count}x: {reason}")
    wrong = failed - ops.failures["deadline"]
    print(json.dumps({"correct": wrong == 0, "attempted": ops.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
