"""Write perfbench/golden.json: the outputs the benchmark checks against.

    python3 perfbench/make_golden.py

Run it from the root of a checkout at the commit whose outputs are the
reference.  It records the SHA-256 of every space-ladder rung's
`space --with-bases` stdout and of `verify-paper --format json`, and
makes the query-mix pool with the digest of each query's result.  A
query still running after GOLDEN_DEADLINE_S gets no digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import common
import query_mix
import space_ladder

POOL_SEED = 20241217
GOLDEN_DEADLINE_S = 10.0


def cli_stdout(*argv):
    env = dict(os.environ, PYTHONPATH=str(common.SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *argv], cwd=common.ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


def main():
    common.import_torsionlab()
    from torsionlab import builders

    golden = {"space": {}}
    for rung in space_ladder.RUNGS:
        golden["space"][rung] = common.sha256(cli_stdout("space", "--algebra", rung, "--with-bases"))
        print(f"space {rung}", flush=True)
    golden["verify_paper"] = common.sha256(cli_stdout("verify-paper", "--format", "json"))
    print("verify-paper", flush=True)

    algebras = [builders.build(common.builder_spec(s)) for s in query_mix.ALGEBRAS]
    slots = query_mix.make_pool(POOL_SEED, algebras)
    stalled = 0
    for slot in slots:
        for q in slot["variants"]:
            f = common.mat_from_json(q["f"])
            try:
                with common.deadline(GOLDEN_DEADLINE_S):
                    result = query_mix.execute(algebras, q, f)
            except common.DeadlineExceeded:
                q["digest"] = None
                stalled += 1
                continue
            q["digest"] = None
            reason = query_mix.judge(algebras, q, f, result)
            if reason:
                raise SystemExit(f"{slot['slot']}: {reason}")
            q["digest"] = common.digest(result)
        print(f"{slot['slot']}", flush=True)
    golden["query_mix"] = {"algebras": query_mix.ALGEBRAS, "pool_seed": POOL_SEED, "slots": slots}
    common.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{sum(len(s['variants']) for s in slots)} queries, {stalled} without a digest")


if __name__ == "__main__":
    main()
