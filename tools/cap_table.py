"""README's cap table: time, peak memory and stdout size of a cold `space`.

    python tools/cap_table.py [--runs K] [--src SRC] [--format json|text] [--digest]

Runs `python -m torsionlab.cli space --algebra A` without and with
`--with-bases`, each in a fresh process, K times (default 7), alternating
the two, for every row of ROWS.  Prints one Markdown row per algebra: the
min-max (median) wall time of each command, the largest peak memory of
the child (its `ru_maxrss`, from `os.wait4`, so POSIX only) and the
stdout size with bases.  --src imports torsionlab from another checkout's
src/; --digest adds the SHA-256 of that stdout, so two trees can be
compared byte for byte.  Measured times swing with the load on the
machine; give the hardware with the table.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (label, --algebra value, extra environment); "explicit" is filled in by
# main() with a file holding the standard basis of gl(12) as {"basis": [...]}
ROWS = [
    ("`gl:n=12`", "gl:n=12", {}),
    ("`so:p=12`", "so:p=12", {}),
    ("`sp:m=6`", "sp:m=6", {}),
    ("`u:p=6`", "u:p=6", {}),
    ("`gl_C:m=6`", "gl_C:m=6", {}),
    ("`gl:n=13` (`TORSIONLAB_MAX_N=13`)", "gl:n=13", {"TORSIONLAB_MAX_N": "13"}),
    ("explicit basis of gl(12), validated", "explicit", {}),
]


def gl_basis_spec(n):
    """The standard basis E_ij of gl(n) as an explicit spec."""
    return {"basis": [[[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)] for i in range(n) for j in range(n)]}


def run_once(argv, env):
    """(seconds, peak RSS in MB, stdout bytes, stdout SHA-256) of one fresh process."""
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
        size += len(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return elapsed, usage.ru_maxrss / 1024, size, digest.hexdigest()


def spread(times):
    return f"{min(times):.2f}-{max(times):.2f} s ({statistics.median(times):.2f})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--src", default=str(SRC), help="the src/ directory to import torsionlab from")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--digest", action="store_true", help="add the SHA-256 of the stdout with bases")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        explicit = os.path.join(tmp, "gl12.json")
        with open(explicit, "w") as fh:
            json.dump(gl_basis_spec(12), fh)
        print("| algebra | `space` | `space --with-bases` | peak without / with bases | stdout with bases |"
              + (" SHA-256 |" if args.digest else ""))
        print("|---|---|---|---|---|" + ("---|" if args.digest else ""))
        for label, algebra, extra in ROWS:
            env = dict(os.environ, PYTHONPATH=args.src, **extra)
            argv = [sys.executable, "-m", "torsionlab.cli", "space", "--format", args.format,
                    "--algebra", explicit if algebra == "explicit" else algebra]
            plain, bases = [], []
            for _ in range(args.runs):
                plain.append(run_once(argv, env))
                bases.append(run_once(argv + ["--with-bases"], env))
            if len({b[3] for b in bases}) != 1:
                raise SystemExit(f"{algebra}: the stdout with bases differs between runs")
            row = (f"| {label} | {spread([r[0] for r in plain])} | {spread([r[0] for r in bases])} "
                   f"| {max(r[1] for r in plain):.0f} / {max(r[1] for r in bases):.0f} MB "
                   f"| {bases[0][2] / 1e6:.1f} MB |")
            print(row + (f" `{bases[0][3][:16]}` |" if args.digest else ""), flush=True)


if __name__ == "__main__":
    main()
