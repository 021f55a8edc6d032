import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_env(env_extra=None):
    env = dict(os.environ)
    # the child interpreter finds the package the same way pytest does
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(env_extra or {})
    return env


def run_cli(*args, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
    )
    return proc


@pytest.mark.parametrize(
    "args",
    [
        ("space", "--algebra", "gl:n=3", "--with-bases"),
        ("exists", "product", "--p", "2", "--f", "[[1,0,0],[0,2,0],[0,0,3]]"),
        ("classify-hpc", "--f", "[[1,0,0],[0,1,0],[0,0,2]]", "--with-bases", "--format", "text"),
    ],
)
def test_closed_stdout_exits_1_without_traceback(args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "torsionlab.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "runtime:" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_stdout_closed_mid_report_exits_1_without_traceback(fmt):
    proc = subprocess.Popen(
        [sys.executable, "-m", "torsionlab.cli", "space", "--algebra", "gl:n=8", "--with-bases", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    assert len(proc.stdout.read(4096)) == 4096  # the reader goes once the report has begun
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "runtime:" in err


def test_space_sp4():
    proc = run_cli("space", "--algebra", "sp:m=2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dims"]["F"] == 6
    assert report["dims"]["k_tilde"] == 6


def test_space_so4_and_gl():
    proc = run_cli("space", "--algebra", "so:p=4")
    assert json.loads(proc.stdout)["dims"]["F"] == 9
    proc = run_cli("space", "--algebra", "gl:n=4")
    assert json.loads(proc.stdout)["dims"]["F"] == 9


def test_space_deterministic():
    a = run_cli("space", "--algebra", "u:p=2", "--with-bases").stdout
    b = run_cli("space", "--algebra", "u:p=2", "--with-bases").stdout
    assert a == b


# The stdout of `space --with-bases` on the rungs small enough for tier-1,
# hashed together: every basis the command prints is pinned byte for byte.
SPACE_RUNGS = [
    "gl:n=4", "gl:n=5", "gl:n=6", "sp:m=2", "sp:m=3", "gl_C:m=2", "gl_C:m=3",
    "so:p=4", "so:p=5", "so:p=6", "so:p=2,q=2", "so:p=3,q=1",
    "u:p=2", "u:p=3", "u:p=1,q=1", "su:m=3", "sp_H:k=1", "delta_gl:m=3", "product_gl:n=6,p=3",
]
SPACE_DIGEST = "ff74d902b5b701493f8c17f3a0b8b04cd81a3099c47343bfc4d743d3ed4f1a9b"


def test_space_with_bases_output_is_pinned(capsys):
    from torsionlab import cli

    digest = hashlib.sha256()
    for rung in SPACE_RUNGS:
        with pytest.raises(SystemExit) as done:
            cli.main(["space", "--algebra", rung, "--with-bases"])
        assert done.value.code == 0, rung
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SPACE_DIGEST


# The stdout of every other subcommand, in JSON and text, hashed together:
# certificates, refusals, existence details and orbit frames are pinned.
_F3 = "[[1,0,0],[0,2,0],[0,0,3]]"
_J3 = "[[0,-1,0],[1,0,0],[0,0,0]]"
_I3 = "[[1,0,0],[0,1,0],[0,0,1]]"
_Z3 = "[[0,0,0],[0,0,0],[0,0,0]]"
_E13 = "[[0,0,1],[0,0,0],[0,0,0]]"
_HPC_BENT = "[[1,1,0,0,0],[0,1,0,0,0],[0,0,1,1,0],[0,0,0,1,1],[0,0,0,0,1]]"
REPORT_CASES = [
    ("check", "--algebra", "gl_C:m=2", "--f", _J3, "--with-bases"),
    ("check", "--algebra", "u:p=2", "--f", _Z3),
    ("check", "--algebra", "sp:m=2", "--f", _E13),
    ("check", "--algebra", "sp:m=2", "--f", _J3, "--with-bases", "--format", "text"),
    ("check", "--algebra", "gl_C:m=2", "--f", _J3, "--hyperplane-map", "[[1,1,0,0],[0,1,0,0],[0,2,1,0],[0,0,0,1]]", "--with-bases"),
    ("check", "--algebra", "gl:n=3", "--f", "[[1,2],[3,4]]", "--hyperplane-map", "[[1,1,0],[0,1,0],[2,0,1]]", "--with-bases"),
    ("flat", "--algebra", "sp:m=2", "--f", "[[0,1,0],[0,0,0],[0,0,0]]", "--with-bases"),
    ("flat", "--algebra", "sp:m=2", "--f", _E13, "--format", "text"),
    ("exists", "product", "--p", "2", "--f", _F3),
    ("exists", "product", "--p", "2", "--type", "3", "--f", _F3),
    ("exists", "tangent", "--f", _I3),
    ("exists", "tangent", "--f", _I3, "--format", "text"),
    ("exists", "hpc", "--f", "[[1,1,0],[0,1,0],[0,0,1]]"),
    ("exists", "family", "--group", "u", "--f", _J3),
    ("exists", "family", "--group", "su", "--f", _J3),
    ("exists", "family", "--group", "gl_C", "--f", _I3),
    ("exists", "family", "--group", "gl_H", "--f", _I3),
    ("exists", "family", "--group", "sl_C", "--f", _Z3),
    ("exists", "family", "--group", "sp_C", "--f", _J3, "--type", "1"),
    ("classify-hpc", "--f", "[[1,0,0],[0,1,0],[0,0,2]]", "--with-bases"),
    ("classify-hpc", "--f", _HPC_BENT),
    ("classify-hpc", "--f", _HPC_BENT, "--with-bases", "--format", "text"),
    ("orbits", "--group", "product", "--n", "4", "--p", "2"),
    ("orbits", "--group", "tangent", "--n", "6", "--format", "text"),
    ("catalog", "--crosscheck", "--format", "text"),
    ("space", "--algebra", "sp_H:k=1", "--with-bases", "--format", "text"),
]
REPORT_DIGEST = "dddb8f8eca26700ae2a6ded83f972de80c040d6760fae1389bdf321206541845"


def test_every_report_is_pinned(capsys):
    from torsionlab import cli

    digest = hashlib.sha256()
    for args in REPORT_CASES:
        with pytest.raises(SystemExit) as done:
            cli.main(list(args))
        assert done.value.code in (0, 1), args
        digest.update(f"{done.value.code}\n".encode() + capsys.readouterr().out.encode())
    assert digest.hexdigest() == REPORT_DIGEST


def test_check_certificate_and_refusal(tmp_path):
    f_good = tmp_path / "good.json"
    f_good.write_text(json.dumps([["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]))
    proc = run_cli("check", "--algebra", "gl_C:m=2", "--f", str(f_good))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "torsion-free"

    f_bad = tmp_path / "bad.json"
    f_bad.write_text(json.dumps([["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]))
    proc = run_cli("check", "--algebra", "sp:m=2", "--f", str(f_bad))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["refused"] is True


def test_check_zero_f_inline():
    proc = run_cli("check", "--algebra", "u:p=2", "--f", json.dumps([["0"] * 3] * 3))
    assert proc.returncode == 0


def test_flat_command():
    proc = run_cli("flat", "--algebra", "sp:m=2", "--f", json.dumps([["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]), "--with-bases")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["certificate"]["kind"] == "flat"
    proc = run_cli("flat", "--algebra", "sp:m=2", "--f", json.dumps([["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]))
    assert proc.returncode == 1


def test_exists_product_and_tangent():
    proc = run_cli("exists", "product", "--p", "2", "--f", json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["overall"] == "yes"
    # odd total dimension: input error
    proc = run_cli("exists", "tangent", "--f", json.dumps([["0", "0"], ["0", "0"]]))
    assert proc.returncode == 2


def test_exists_hpc_no():
    proc = run_cli("exists", "hpc", "--f", json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["overall"] == "no"


def test_classify_hpc_yes_with_flatness():
    proc = run_cli("classify-hpc", "--f", json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "yes_caseA"
    assert "flatness" in report


def test_orbits_command():
    proc = run_cli("orbits", "--group", "product", "--n", "4", "--p", "2")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["reps"]) == 3
    proc = run_cli("orbits", "--group", "nope", "--n", "4")
    assert proc.returncode == 2


def test_catalog_command():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    names = [row["name"] for row in json.loads(proc.stdout)["catalog"]]
    assert "sp(4,R)" in names and len(names) >= 10


def test_verify_paper_single_target():
    proc = run_cli("verify-paper", "--target", "symplectic")
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout
    proc = run_cli("verify-paper", "--target", "nonsense")
    assert proc.returncode == 2


def test_unknown_algebra_exit_2():
    proc = run_cli("space", "--algebra", "nope:m=2")
    assert proc.returncode == 2


def test_max_n_cap():
    proc = run_cli("space", "--algebra", "so:p=5", env_extra={"TORSIONLAB_MAX_N": "4"})
    assert proc.returncode == 2
    assert "TORSIONLAB_MAX_N" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("space", "--algebra", "gl:n=3"),
        ("exists", "product", "--p", "1", "--f", "[[1]]"),
        ("classify-hpc", "--f", "[[1]]"),
        ("orbits", "--group", "product", "--n", "4", "--p", "2"),
    ],
    ids=["space", "exists", "classify-hpc", "orbits"],
)
def test_malformed_max_n_is_an_input_error(args):
    proc = run_cli(*args, env_extra={"TORSIONLAB_MAX_N": "abc"})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = next(line for line in proc.stderr.splitlines() if line.startswith("error:"))
    assert "TORSIONLAB_MAX_N" in error and "'abc'" in error


def test_user_supplied_basis_with_structure():
    spec = {
        "basis": [[["0", "-1"], ["1", "0"]]],
        "J": [["0", "-1"], ["1", "0"]],
        "name": "so(2)",
    }
    proc = run_cli("space", "--algebra", json.dumps(spec))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dims"]["F"] == 1


def test_text_format():
    proc = run_cli("space", "--algebra", "sp:m=2", "--format", "text")
    assert proc.returncode == 0
    assert "F: 6" in proc.stdout


def test_text_format_keeps_matrix_rows():
    identity = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    proc = run_cli("exists", "tangent", "--f", identity, "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    at = lines.index("  conjugated:")
    assert lines[at + 1 : at + 4] == ["    - [1, 0, 0]", "    - [0, 1, 0]", "    - [0, 0, 1]"]
    at = lines.index("  basis:")
    assert all(line.startswith("    - [") and line.count(",") == 2 for line in lines[at + 1 : at + 4])
    assert lines[at + 4] == "  conjugated:"


def test_text_format_marks_each_object_of_a_list():
    proc = run_cli("orbits", "--group", "product", "--n", "4", "--p", "2", "--format", "text")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    at = lines.index("reps:")
    starts = [i for i, line in enumerate(lines) if line == "  -"]
    assert len(starts) == 3 and starts[0] == at + 1
    # each object follows its own marker, one level deeper
    assert all(lines[i + 1] == "    T:" for i in starts)
    assert [line for line in lines if line.startswith("    label:")] == [f"    label: [U{k}]" for k in (1, 2, 3)]


def test_exists_type_filter():
    proc = run_cli(
        "exists", "product", "--p", "2", "--type", "2",
        "--f", json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["types"] == [
        {"type": "[U2]", "verdict": "yes", "recipe": "P = (v o T_[U2]) . H"}
    ]
    proc = run_cli(
        "exists", "product", "--p", "2", "--type", "9",
        "--f", json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]),
    )
    assert proc.returncode == 2


def test_orbits_type_filter():
    proc = run_cli("orbits", "--group", "tangent", "--n", "4", "--type", "2")
    assert proc.returncode == 0
    reps = json.loads(proc.stdout)["reps"]
    assert len(reps) == 1 and reps[0]["label"] == "[U2]"


def test_exists_family_dimension_error():
    proc = run_cli("exists", "family", "--group", "u", "--f", json.dumps([["1", "0"], ["0", "1"]]))
    assert proc.returncode == 2


F3 = json.dumps([["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]])


@pytest.mark.parametrize(
    "args",
    [
        ("flat", "--algebra", "sp:m=2", "--f", F3, "--v", "1,0,0,1"),
        ("space", "--algebra", "sp:m=2", "--seed", "1"),
        ("check", "--algebra", "sp:m=2", "--f", F3, "--seed", "1"),
        ("exists", "product", "--p", "2", "--f", F3, "--with-bases"),
        ("classify-hpc", "--f", F3, "--v", "1,0,0,1"),
        ("space", "--algebra", "sp:m=2", "--v=-1,0,0,1"),
        ("check", "--algebra", "sp:m=2", "--f", F3, "--v", "1,0,0,2"),
    ],
    ids=["flat-v", "space-seed", "check-seed", "exists-with-bases", "classify-hpc-v", "space-v", "check-v"],
)
def test_unread_flags_rejected(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


HUGE = "9" * 5000
SPEC_FILE = "<spec file>"


@pytest.mark.parametrize(
    "args,named",
    [
        # F and certificates do not depend on a transversal, so --v is an
        # unread flag: these two end in argparse, before the value is read
        (("space", "--algebra", "gl:n=4", "--v", "1,0,0,0"), None),
        (("space", "--algebra", "gl:n=4", "--v", "1/0,0,0,1"), None),
        (("check", "--algebra", "gl:n=3", "--f", '[["x",0],[0,0]]'), None),
        (("check", "--algebra", "gl:n=3", "--f", '{"f":3}'), None),
        (("flat", "--algebra", "gl:n=2", "--f", "[[3.14159265358979323846264]]"), "not a rational value"),
        (("flat", "--algebra", "gl:n=2", "--f", "[[1e-400]]"), "not a rational value"),
        (("flat", "--algebra", "gl:n=2", "--f", "[[true]]"), "not a rational value"),
        (("check", "--algebra", "gl:n=2", "--f", "[[1]]", "--hyperplane-map", "[[1.0, 0], [0, 1]]"), "not a rational value"),
        (("space", "--algebra", '{"basis": [[[true, 0], [0, 0]]]}'), "basis[0]"),
        (("exists", "product", "--f", F3, "--p", "9"), None),
        (("exists", "family", "--group", "product", "--f", "[[1]]"), None),
        (("space", "--algebra", "so:p=0"), "p=0"),
        (("space", "--algebra", "sp:m=-1"), "parameter m"),
        (("space", "--algebra", "gl_H:k=0"), "k=0"),
        (("space", "--algebra", "sp_C:k=0"), "k=0"),
        (("space", "--algebra", "lagrangian_symplectic:m=0"), "m=0"),
        (("space", "--algebra", "u:p=2,q=-1"), "parameter q"),
        (("space", "--algebra", "so:p=3,q=-1"), "parameter q"),
        (("space", "--algebra", "so:p=4,x=3"), "parameter 'x'"),
        (("space", "--algebra", "product_gl:n=4,p=0"), "signature requires 1 <= p <= n-1"),
        (("space", "--algebra", "product_gl:n=4,p=4"), "signature requires 1 <= p <= n-1"),
        (("space", "--algebra", "gl:n=40"), "TORSIONLAB_MAX_N"),
        (("space", "--algebra", "so:p=40"), "TORSIONLAB_MAX_N"),
        (("space", "--algebra", "."), "cannot read"),
        (("space", "--algebra", '{"basis": [[["1/0", 0], [0, 0]]]}'), "basis[0]"),
        (("space", "--algebra", '{"builder": "so_g", "params": {"gram": [["1/0"]]}}'), "parameter gram"),
        (("space", "--algebra", '{"basis": [[[1]]]}'), "ambient dimension 1"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "hpc": null}'), "hpc must be a list of three"),
        (("space", "--algebra", '{"builder": {"n": 3}}'), "unknown builder"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "g": [[0, 0], [0, 0]], "validate": false}'), "g must be"),
        # a row that is not a list is not read as its characters or keys
        (("check", "--algebra", "gl:n=2", "--f", '["5"]'), "list of rows"),
        (("flat", "--algebra", "gl:n=3", "--f", '["12","34"]'), "list of rows"),
        (("check", "--algebra", "gl:n=2", "--f", '[{"7":1}]'), "list of rows"),
        (("space", "--algebra", '{"basis": [["10","01"]]}'), "basis[0]"),
        (("space", "--algebra", '{"basis": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}'), "basis is not bracket-closed"),
        (("space", "--algebra", "gl:n"), "malformed builder parameter"),
        (("orbits", "--group", "hpc", "--n", "4"), "has no orbit types"),
        (("exists", "tangent", "--p", "1", "--f", "[[1,0,0],[0,1,0],[0,0,1]]"), "tangent structures take no signature p"),
        (("orbits", "--group", "u", "--n", "4", "--p", "3"), "u structures take no signature p"),
        # an integer past Python's int-string digit limit stops json.loads
        (("check", "--algebra", "gl:n=2", "--f", f"[[{HUGE}]]"), "integer string conversion"),
        (("check", "--algebra", "gl:n=2", "--f", "[[1]]", "--hyperplane-map", f"[[{HUGE}, 0], [0, 1]]"), "integer string conversion"),
        (("space", "--algebra", f'{{"builder": "gl", "params": {{"n": {HUGE}}}}}'), "integer string conversion"),
        (("space", "--algebra", SPEC_FILE), "integer string conversion"),
        # a rational is "p/q" or "p": an exponent is not read, so it costs nothing
        (("check", "--algebra", "gl:n=2", "--f", '[["1e10000000"]]'), "not a rational value"),
        (("flat", "--algebra", "gl:n=2", "--f", '[["0.5"]]'), "not a rational value"),
        (("flat", "--algebra", "gl:n=2", "--f", '[[" 3"]]'), "not a rational value"),
        # a builder's Gram meets the identity of g, as an attached g does
        (("space", "--algebra", '{"builder": "so_g", "params": {"gram": [[1, 0], [0, 0]]}}'), "g must be symmetric invertible"),
        (("space", "--algebra", '{"builder": "so_g", "params": {"gram": [[1, 2], [3, 4]]}}'), "g must be symmetric invertible"),
        (("space", "--algebra", '{"builder": "u", "params": {"p": 1, "gram": [[0, 0], [0, 0]]}}'), "g must be symmetric invertible"),
        (("space", "--algebra", '{"builder": "u", "params": {"p": 1, "gram": [[0, 1], [-1, 0]]}}'), "g must be symmetric invertible"),
        # a spec key that would be read and then ignored
        (("space", "--algebra", '{"builder": "gl", "params": {"n": 3}, "bogus": 1}'), "no key 'bogus'; accepted keys: builder, params"),
        (("space", "--algebra", '{"builder": "gl", "params": {"n": 2}, "basis": [[[1, 0], [0, 0]]]}'), "no key 'basis'"),
        (("space", "--algebra", '{"builder": "gl", "params": {"n": 2}, "J": [[0, -1], [1, 0]]}'), "no key 'J'"),
        (("space", "--algebra", '{"builder": "gl", "params": {"n": 2}, "name": "x"}'), "no key 'name'"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "params": {}}'), "no key 'params'; accepted keys: basis, name, validate"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "lagrangian": [[1, 0], [0, 0]]}'), "no key 'lagrangian'"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "omega_u": [[0, 1], [-1, 0]]}'), "no key 'omega_u'"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "validate": 0}'), "'validate' must be true or false"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "validate": "no"}'), "'validate' must be true or false"),
        (("space", "--algebra", '{"basis": [[[1, 0], [0, 0]]], "name": [1]}'), "'name' must be a string"),
        (("space", "--algebra", '{"builder": "gl", "params": [3]}'), "gl: params must be an object"),
        (("space", "--algebra", '{"builder": "u", "params": {"p": 1, "gram": [[1, 0], [0, 2]]}}'), "gram is not J-invariant"),
    ],
    ids=[
        "v-in-hyperplane",
        "v-zero-denominator",
        "f-not-rational",
        "f-not-a-matrix",
        "f-float",
        "f-float-underflow",
        "f-bool",
        "hyperplane-map-float",
        "basis-bool",
        "p-out-of-range",
        "family-product-without-p",
        "so-p0",
        "sp-m-negative",
        "glH-k0",
        "spC-k0",
        "lagrangian-m0",
        "u-q-negative",
        "so-q-negative",
        "so-unknown-key",
        "product_gl-p0",
        "product_gl-p-equals-n",
        "gl40-capped-before-building",
        "so40-capped-before-building",
        "algebra-is-a-directory",
        "basis-zero-denominator",
        "gram-zero-denominator",
        "basis-1x1",
        "hpc-not-a-triple",
        "builder-not-a-name",
        "unchecked-singular-metric",
        "f-row-a-string",
        "f-rows-strings",
        "f-row-an-object",
        "basis-rows-strings",
        "basis-not-closed",
        "builder-parameter-without-value",
        "orbits-of-a-group-without-types",
        "p-on-tangent",
        "orbits-p-on-u",
        "f-huge-integer",
        "hyperplane-map-huge-integer",
        "inline-spec-huge-integer",
        "spec-file-huge-integer",
        "f-exponent-string",
        "f-decimal-string",
        "f-padded-string",
        "so_g-singular-gram",
        "so_g-unsymmetric-gram",
        "u-zero-gram",
        "u-antisymmetric-gram",
        "builder-spec-unknown-key",
        "builder-spec-with-basis",
        "builder-spec-with-J",
        "builder-spec-with-name",
        "explicit-spec-with-params",
        "explicit-spec-with-lagrangian",
        "explicit-spec-with-omega_u",
        "validate-zero",
        "validate-string",
        "name-a-list",
        "params-not-an-object",
        "u-gram-not-J-invariant",
    ],
)
def test_bad_input_is_an_input_error(args, named, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(f'{{"builder": "so", "params": {{"p": {HUGE}}}}}')
    proc = run_cli(*(str(spec_file) if arg == SPEC_FILE else arg for arg in args))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    if named is not None:
        error = next(line for line in proc.stderr.splitlines() if line.startswith("error:"))
        assert named in error
        # nothing is built: the command's own runtime line reads well under a second
        runtime = float(proc.stderr.split("runtime: ")[1].split("s")[0])
        assert runtime < 0.5


def test_rational_strings_read():
    proc = run_cli("flat", "--algebra", "gl:n=3", "--f", '[["-3/2", "7"], ["+4/6", "0"]]', "--with-bases")
    assert proc.returncode == 0, proc.stderr
    nabla = json.loads(proc.stdout)["certificate"]["nabla"]
    assert nabla[2][:2] == [["-3/2", "2/3", "0"], ["7", "0", "0"]]


def _longest_entry(report):
    if isinstance(report, dict):
        return max(map(_longest_entry, report.values()), default=0)
    if isinstance(report, list):
        return max(map(_longest_entry, report), default=0)
    return len(str(report))


@pytest.mark.parametrize(
    "algebra,f,code",
    [
        ("so:p=3", [[1, 0], [0, 0]], 0),
        ("u:p=2", [[0, 0, 0], [0, 0, 0], [0, 0, 1]], 0),
        ("u:p=2", [[1, 0, 0], [0, 0, 0], [0, 0, 0]], 1),
    ],
    ids=["so3-certificate", "u2-certificate", "u2-refusal"],
)
def test_output_rationals_past_the_int_string_limit_print(algebra, f, code):
    # a 2,501-digit entry of the hyperplane map reads within Python's
    # 4,300-digit limit; the results it conjugates into print in full
    n = len(f) + 1
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t[0][1] = t[n - 2][n - 1] = "1" + "0" * 2500
    proc = run_cli("check", "--algebra", algebra, "--f", json.dumps(f), "--hyperplane-map", json.dumps(t), "--with-bases")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert _longest_entry(json.loads(proc.stdout)) > 4300


@pytest.mark.parametrize("n", [3, 4])
def test_an_unpreserved_metric_fires_no_metric_rule(n):
    # the upper-triangular algebra does not preserve g = I: without
    # validation it is read, and no metric closed form applies to it
    basis = [[[int((a, b) == (i, j)) for b in range(n)] for a in range(n)] for i in range(n) for j in range(i, n)]
    identity = [[int(a == b) for b in range(n)] for a in range(n)]
    spec = {"basis": basis, "g": identity, "validate": False}
    proc = run_cli("space", "--algebra", json.dumps(spec))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["closed_form_rule"] is None
    checked = run_cli("space", "--algebra", json.dumps({**spec, "validate": True}))
    assert checked.returncode == 2 and "basis element does not preserve g" in checked.stderr


I3 = json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


@pytest.mark.parametrize(
    "mode,extra,f",
    [("product", ("--p", "2"), F3), ("tangent", (), I3)],
    ids=["product", "tangent"],
)
def test_family_mode_is_the_group_mode(mode, extra, f):
    direct = run_cli("exists", mode, "--f", f, *extra)
    family = run_cli("exists", "family", "--group", mode, "--f", f, *extra)
    assert direct.returncode == family.returncode == 0
    assert json.loads(direct.stdout)["detail"]["basis"] is not None
    assert family.stdout == direct.stdout


@pytest.mark.parametrize("group,n", [("gl_C", "5"), ("gl_H", "6")])
def test_orbits_follow_the_group_dimension_rule(group, n):
    proc = run_cli("orbits", "--group", group, "--n", n)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("exists", "family", "--group", "u", "--p", "2", "--f", I3),
        ("orbits", "--group", "u", "--n", "4", "--p", "3"),
        ("exists", "tangent", "--group", "u", "--f", I3),
        ("exists", "hpc", "--group", "u", "--p", "5", "--f", I3),
        ("exists", "tangent", "--p", "1", "--f", I3),
    ],
    ids=["p-on-u", "orbits-p-on-u", "group-outside-family", "group-and-p-on-hpc", "p-on-tangent"],
)
def test_flags_outside_their_group_are_input_errors(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and proc.stdout == ""


# the stdlib modules `import torsionlab.cli` may add to a fresh interpreter:
# process start plus import is a cost every CLI call pays (a module the
# interpreter loaded at start is not added, and costs nothing)
CLI_STDLIB_IMPORTS = {
    "__future__", "_decimal", "_json", "argparse", "decimal", "fractions", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner", "numbers",
}


def test_cli_import_adds_only_the_package_and_pinned_stdlib_modules():
    probe = "import sys; before = set(sys.modules); import torsionlab.cli; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True
    )
    added = set(proc.stdout.split())
    assert "torsionlab.cli" in added
    extra = {m for m in added if m.partition(".")[0] != "torsionlab"} - CLI_STDLIB_IMPORTS
    assert not extra, f"import torsionlab.cli now also loads {sorted(extra)}"


def test_group_help_lists_every_group():
    from torsionlab.existence import GROUPS

    proc = run_cli("exists", "--help")
    text = " ".join(proc.stdout.split())
    for name in GROUPS:
        assert f"{name} (" in text
    assert "product (n >= 2, --p, --type 1..3)" in text and "gl_H (n >= 4 divisible by 4, --type 1..1)" in text


@pytest.mark.parametrize("which", ["gl4", "sp4-conjugated"])
def test_explicit_basis_space_matches_the_builder(which):
    """An explicit basis is validated (closure included) in a fresh process
    and gives the bases the engine computes from the built algebra."""
    from torsionlab import engine, reporting
    from torsionlab.algebras import conjugate
    from torsionlab.builders import build_gl, build_sp
    from torsionlab.linalg import Mat

    if which == "gl4":
        h = build_gl(4)
    else:  # a unimodular upper times lower triangular T fills in most entries of each element
        t = Mat([[1, 1, 0, -1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]) * Mat([[1, 0, 0, 0], [1, 1, 0, 0], [-1, 0, 1, 0], [0, 1, 1, 1]])
        h = conjugate(build_sp(2), t)
    spec = {key: reporting.view(value) for key, value in h.structures.items() if key == "omega"}
    spec["basis"] = [reporting.view(b) for b in h.basis]
    proc = run_cli("space", "--algebra", json.dumps(spec), "--with-bases")
    assert proc.returncode == 0, proc.stderr
    spaces = {
        "k_tilde": engine.characteristic_subalgebra(h),
        "tableau": engine.tableau(h),
        "K1": engine.first_prolongation(h),
        "D": engine.connection_space(h),
        "F": engine.obstruction_space(h),
    }
    assert json.loads(proc.stdout)["bases"] == {key: reporting.subspace_to_json(s) for key, s in spaces.items()}


def test_catalog_crosscheck(capsys):
    from torsionlab import cli

    with pytest.raises(SystemExit) as done:
        cli.main(["catalog", "--crosscheck"])
    assert done.value.code == 0
    rows = json.loads(capsys.readouterr().out)["catalog"]
    assert len(rows) == 26
    assert all(rule["equal"] is True for row in rows for rule in row["rules"])
    assert sum(len(row["rules"]) for row in rows) >= 10


def test_failing_verify_paper_exits_1(monkeypatch, capsys):
    from torsionlab import cli, verify

    forced = [("symplectic", lambda: [verify._check("symplectic: forced", False, "forced failure")])]
    monkeypatch.setattr(verify, "CHECKS", forced + verify.CHECKS[1:])
    with pytest.raises(SystemExit) as done:
        cli.main(["verify-paper", "--target", "symplectic"])
    assert done.value.code == 1
    assert capsys.readouterr().out == "[FAIL] symplectic: forced -- forced failure\n"


def test_violated_invariant_exits_3(monkeypatch, capsys):
    from torsionlab import cli

    def broken(h):
        raise AssertionError("forced")

    monkeypatch.setattr(cli, "obstruction_space", broken)
    with pytest.raises(SystemExit) as done:
        cli.main(["space", "--algebra", "gl:n=3"])
    assert done.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant violation: forced" in captured.err and "Traceback" not in captured.err


# Every module a fresh `import torsionlab.cli` loads on Python 3.11, the
# interpreter's start-up and its site hooks included.  A new import, or a
# table of primes or other module-level work pulling one in, changes this
# list.  Much of the import cost is compiling: with bytecode writing off
# (PYTHONDONTWRITEBYTECODE=1) there is no __pycache__, and compiling the
# package's 4,700 source lines takes about 40 ms of the 75 ms the import
# adds to interpreter start (Python 3.11, 2-vCPU Xeon VM), so the
# benchmark's setup_s also pays for every source line.
CLI_IMPORTS = """
    __future__ __main__ _abc _bisect _bz2 _codecs _collections _collections_abc _compression _decimal
    _distutils_hack _frozen_importlib _frozen_importlib_external _functools _imp _io _json _lzma
    _operator _random _sha512 _signal _sitebuiltins _sre _stat _struct _thread _typing _warnings
    _weakref _weakrefset abc argparse atexit binascii bisect builtins bz2 certifi certifi.core codecs
    collections collections.abc contextlib copyreg decimal encodings encodings.aliases encodings.utf_8
    enum errno fnmatch fractions functools genericpath gettext importlib importlib._abc
    importlib._bootstrap importlib._bootstrap_external importlib.readers importlib.resources
    importlib.resources._adapters importlib.resources._common importlib.resources._itertools
    importlib.resources._legacy importlib.resources.abc importlib.resources.readers importlib.util io
    ipaddress itertools json json.decoder json.encoder json.scanner keyword lzma marshal math ntpath
    numbers operator os os.path pathlib posix posixpath random re re._casefix re._compiler
    re._constants re._parser reprlib shutil site stat struct sys tempfile threading time torsionlab
    torsionlab.algebras torsionlab.builders torsionlab.cli torsionlab.ellipticity torsionlab.engine
    torsionlab.existence torsionlab.linalg torsionlab.polynomials torsionlab.profiles
    torsionlab.reporting torsionlab.spectral torsionlab.verify types typing typing.io typing.re urllib
    urllib.parse warnings weakref zipfile zipimport zlib
""".split()


def test_importing_the_cli_loads_the_pinned_modules():
    if sys.version_info[:2] != (3, 11):
        pytest.skip("the list is pinned for Python 3.11")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, torsionlab.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert len(CLI_IMPORTS) == 127
    assert loaded == CLI_IMPORTS, (sorted(set(loaded) - set(CLI_IMPORTS)), sorted(set(CLI_IMPORTS) - set(loaded)))
