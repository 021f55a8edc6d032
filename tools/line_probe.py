"""Line probe: the executable lines of src/torsionlab that a command never reaches.

    python tools/line_probe.py OUTDIR python -m pytest -q

Writes a sitecustomize.py into OUTDIR and runs the command with OUTDIR first
on PYTHONPATH, so every Python process it starts, child CLI processes
included, records the torsionlab lines it runs (sys.settrace) into
OUTDIR/lines.<pid> at exit.  Then prints the unreached lines per module.
Tracing makes tier-1 several times slower, so the probe stays out of it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "torsionlab"
HOOK = """import atexit, os, sys
hits = set()
def local(frame, event, arg):
    hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local
sys.settrace(lambda frame, event, arg: local(frame, event, arg) if frame.f_code.co_filename.startswith(%(src)r) else None)
@atexit.register
def dump():
    with open(os.path.join(%(out)r, "lines.%%d" %% os.getpid()), "w") as fh:
        fh.writelines("%%s:%%d\\n" %% h for h in hits)
"""


def executable(code):
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def main(out, *command):
    out = os.path.abspath(out)
    os.makedirs(out, exist_ok=True)
    Path(out, "sitecustomize.py").write_text(HOOK % {"src": str(SRC), "out": out})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (out, os.environ.get("PYTHONPATH")) if p))
    code = subprocess.run(command, env=env).returncode
    hits = set()
    for path in Path(out).glob("lines.*"):
        for line in path.read_text().splitlines():
            name, _, number = line.rpartition(":")
            hits.add((os.path.realpath(name), int(number)))
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable(compile(path.read_text(), str(path), "exec"))
        unreached = sorted(n for n in lines if (str(path.resolve()), n) not in hits)
        total, missed = total + len(lines), missed + len(unreached)
        print(f"{path.name}: {len(unreached)} of {len(lines)} unreached: {' '.join(map(str, unreached))}")
    print(f"total: {missed} of {total} executable lines unreached (command exit {code})")


if __name__ == "__main__":
    main(*sys.argv[1:])
