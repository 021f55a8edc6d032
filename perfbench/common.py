"""Shared pieces of the benchmark: locating the package under test,
clearing its caches, output digests, the span recorder, the per-op
deadline and the independent certificate re-check."""

from __future__ import annotations

import hashlib
import json
import math
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, golden data, ...)."""


def import_torsionlab():
    """Import torsionlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        raise BenchError(f"no torsionlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsionlab

    if Path(torsionlab.__file__).resolve().parent != (SRC / "torsionlab").resolve():
        raise BenchError(f"torsionlab imported from {torsionlab.__file__}, not {SRC}")
    return torsionlab


def load_golden():
    if not GOLDEN.is_file():
        raise BenchError(f"golden digests missing: {GOLDEN}")
    return json.loads(GOLDEN.read_text())


def package_caches():
    """Every functools cache in the torsionlab package, found by cache_clear."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "torsionlab" or name.startswith("torsionlab.")):
            continue
        for value in vars(module).values():
            holders = [value]
            if isinstance(value, type):
                holders += list(vars(value).values())
            for obj in holders:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def clear_caches(caches):
    for fn in caches:
        fn.cache_clear()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canon(obj):
    """A JSON-able canonical form of a torsionlab result, for digests."""
    from torsionlab.engine import Certificate, Refusal
    from torsionlab.linalg import Mat, Subspace

    if isinstance(obj, Certificate):
        return {"kind": obj.kind, "gamma": [rat(x) for x in obj.nabla.gamma],
                "residuals": {k: rat(v) for k, v in obj.residuals.items()}}
    if isinstance(obj, Refusal):
        return {"refused": obj.reason, "residual": [rat(x) for x in obj.residual]}
    if isinstance(obj, Mat):
        return {"mat": [[rat(x) for x in row] for row in obj.data]}
    if isinstance(obj, Subspace):
        return {"subspace": [[rat(x) for x in b] for b in obj.basis]}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, Fraction):
        return rat(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    return sha256(json.dumps(canon(obj), sort_keys=True))


def builder_spec(shorthand):
    """'name:key=val,...' -> the builder spec the CLI would build."""
    name, _, params = shorthand.partition(":")
    kv = dict(piece.split("=", 1) for piece in params.split(",")) if params else {}
    return {"builder": name, "params": kv}


def grid_to_json(rows):
    return [[rat(x) for x in row] for row in rows]


def mat_from_json(rows):
    from torsionlab.linalg import Mat

    return Mat([[Fraction(x) for x in row] for row in rows])


# -- timing -------------------------------------------------------------------


class Spans:
    """In-memory span recorder: (name, start, end, op) per span.

    The benchmark records sibling spans only (each around one call into
    a layer's public function), so a span's self time is its duration.
    """

    def __init__(self):
        self.records = []
        self.op = None

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, start, time.perf_counter(), self.op))

    def add(self, name, seconds, op):
        """A span measured elsewhere (in a child process)."""
        self.records.append((name, 0.0, seconds, op))


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds):
    """Abort the enclosed call with DeadlineExceeded after `seconds` (SIGALRM)."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def quantile(values, q):
    """Quantile of a non-empty sample, interpolating between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (pos - low) * (ordered[high] - ordered[low])



# -- independent certificate re-check -------------------------------------------


def recheck_certificate(h, f, gamma, flat):
    """Re-validate a connection on g_f without the engine's tensor code.

    Checks that every nabla_{e_i} lies in h, that the torsion
    nabla_i e_j - nabla_j e_i - [e_i, e_j] vanishes and, for a flat
    certificate, that [A_i, A_j] = A_{[e_i, e_j]}.  Returns a reason
    string on failure, None when the certificate holds.
    """
    from torsionlab.linalg import Mat

    n = h.n
    if len(gamma) != n**3:
        return "certificate has the wrong size"
    # A[i][l][m] = l-th component of nabla_{e_i} e_m
    A = [[[gamma[i * n * n + m * n + l] for m in range(n)] for l in range(n)] for i in range(n)]
    for i in range(n):
        if not h.contains(Mat(A[i])):
            return f"nabla_e{i + 1} is not in h"

    def bracket(i, j):
        # g_f: [e_n, e_j] = f e_j for j < n, the hyperplane is Abelian
        out = [Fraction(0)] * n
        if i == n - 1 and j < n - 1:
            for k in range(n - 1):
                out[k] = f[k][j]
        elif j == n - 1 and i < n - 1:
            for k in range(n - 1):
                out[k] = -f[k][i]
        return out

    for i in range(n):
        for j in range(n):
            br = bracket(i, j)
            for k in range(n):
                if A[i][k][j] - A[j][k][i] != br[k]:
                    return "certificate has torsion"
    if not flat:
        return None
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(i, j)
            for l in range(n):
                for m in range(n):
                    s = sum(A[i][l][t] * A[j][t][m] - A[j][l][t] * A[i][t][m] for t in range(n))
                    s -= sum(br[t] * A[t][l][m] for t in range(n))
                    if s != 0:
                        return "certificate has curvature"
    return None


def max_bits(subspaces):
    """Largest numerator or denominator bit length over canonical bases."""
    best = 0
    for s in subspaces:
        for b in s.basis:
            for x in b:
                best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best
