import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    # the child interpreter finds the package the same way pytest does
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


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
    ],
    ids=["flat-v", "space-seed", "check-seed", "exists-with-bases", "classify-hpc-v"],
)
def test_unread_flags_rejected(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("space", "--algebra", "gl:n=4", "--v", "1,0,0,0"),
        ("space", "--algebra", "gl:n=4", "--v", "1/0,0,0,1"),
        ("check", "--algebra", "gl:n=3", "--f", '[["x",0],[0,0]]'),
        ("check", "--algebra", "gl:n=3", "--f", '{"f":3}'),
        ("exists", "product", "--f", F3, "--p", "9"),
    ],
    ids=["v-in-hyperplane", "v-zero-denominator", "f-not-rational", "f-not-a-matrix", "p-out-of-range"],
)
def test_bad_input_is_an_input_error(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
