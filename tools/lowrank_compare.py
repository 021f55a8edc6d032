"""classify_low_rank answers of one source tree, for comparing two trees.

    python tools/lowrank_compare.py SRC OUT.json

Imports torsionlab from SRC (a checkout's src/) and writes, per case, the
status, method and witness coefficients of classify_low_rank, or
"TIMEOUT" past 5 s (SIGALRM, so POSIX only).  The cases are the catalog
at r = 1 and 2, 120 seeded random spans of dim 1..3 (n = 2..4, entries
up to 2, 5 or 9) and 60 seeded spans whose elements carry distinct
scales, so that rank drops need coefficient ratios outside the grid and
the minor solve has to find them.  Run it on two trees and compare the
files without the "s" (seconds) field.
"""

import json
import random
import signal
import sys
import time

sys.path.insert(0, sys.argv[1])

from torsionlab.algebras import LinearSubalgebra  # noqa: E402
from torsionlab.builders import catalog  # noqa: E402
from torsionlab.ellipticity import classify_low_rank  # noqa: E402
from torsionlab.linalg import Mat  # noqa: E402

TIMEOUT_S = 5


class Timeout(Exception):
    pass


def _raise_timeout(*_):
    raise Timeout


def run(h, r):
    signal.alarm(TIMEOUT_S)
    start = time.perf_counter()
    try:
        res = classify_low_rank(h, r)
    except Timeout:
        return {"status": "TIMEOUT"}
    finally:
        signal.alarm(0)
    out = {"status": res["status"], "method": res["method"], "s": round(time.perf_counter() - start, 3)}
    if "witness_coeffs" in res:
        out["witness"] = [str(c) for c in res["witness_coeffs"]]
    return out


def spans():
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.choice([2, 2, 3, 3, 4])
        d = rng.randint(1, 3)
        lo = rng.choice([2, 5, 9])
        r = rng.randint(1, n - 1)
        basis = [
            Mat([[rng.randint(-lo, lo) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)])
            for _ in range(d)
        ]
        yield f"seed{seed}:n{n}:d{d}:r{r}", basis, r
    for seed in range(1000, 1060):
        rng = random.Random(seed)
        n = rng.choice([2, 2, 3])
        d = rng.randint(2, 3)
        r = rng.randint(1, n - 1)
        scales = rng.sample([1, 3, 5, 7, 11, 13], d)
        basis = [Mat([[s * rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) for s in scales]
        yield f"scaled{seed}:n{n}:d{d}:r{r}", basis, r


def main(out_path):
    signal.signal(signal.SIGALRM, _raise_timeout)
    results = {}
    for h in catalog():
        for r in (1, 2):
            results[f"catalog:{h.name}:r{r}"] = run(h, r)
    for key, basis, r in spans():
        results[key] = run(LinearSubalgebra(basis[0].rows, basis, name="span", validate=False), r)
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[2])
