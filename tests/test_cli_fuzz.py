"""Random command lines fed to the CLI in-process.

Every input must end in exactly one of three ways: an answer (exit 0),
a verdict of "no" or "unknown" (exit 1, the verdict on stdout) or an
input error (exit 2).  Any other exception, and so any traceback, fails.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from torsionlab import cli

GROUP_NAMES = ["product", "tangent", "hpc", "gl_C", "sl_C", "sp_C", "u", "su", "gl_H", "nope"]
ENTRIES = ["0", "1", "-1", "2", "1/2", "-3/2"]
FUZZ = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# the two-command tests run fewer examples each; the file stays under about 5 s
FUZZ_FEWER = settings(FUZZ, max_examples=80)


def flag(name, strategy):
    return strategy.map(lambda v: [] if v is None else [name, str(v)])


def matrices(sizes=st.integers(1, 5), entries=ENTRIES):
    return sizes.flatmap(
        lambda k: st.lists(st.lists(st.sampled_from(entries), min_size=k, max_size=k), min_size=k, max_size=k)
    ).map(json.dumps)


optional_p = st.one_of(st.none(), st.integers(-1, 6))
optional_type = st.one_of(st.none(), st.integers(0, 4))
optional_group = st.one_of(st.none(), st.sampled_from(GROUP_NAMES))



@st.composite
def well_formed_exists(draw):
    """A group's own mode or family mode, with a signature only for product."""
    group = draw(st.sampled_from(GROUP_NAMES[:-1]))
    modulus = {"product": 1, "sp_C": 4, "gl_H": 4}.get(group, 2)
    n = draw(st.sampled_from([n for n in range(2, 7) if n % modulus == 0]))
    f = draw(matrices(st.just(n - 1)))
    p = ["--p", str(draw(st.integers(1, n - 1)))] if group == "product" else []
    if group in ("product", "tangent", "hpc") and draw(st.booleans()):
        return ["exists", group, "--f", f, *p]
    return ["exists", "family", "--group", group, "--f", f, *p]


exists_argv = st.one_of(
    well_formed_exists(),
    st.builds(
        lambda mode, f, group, p, t: ["exists", mode, "--f", f, *group, *p, *t],
        st.sampled_from(["product", "tangent", "hpc", "family"]),
        matrices(),
        flag("--group", optional_group),
        flag("--p", optional_p),
        flag("--type", optional_type),
    ),
)

orbits_argv = st.builds(
    lambda group, n, p, t: ["orbits", "--group", group, "--n", str(n), *p, *t],
    st.sampled_from(GROUP_NAMES),
    st.integers(-1, 9),
    flag("--p", optional_p),
    flag("--type", optional_type),
)

space_argv = st.builds(
    lambda name, params: ["space", "--algebra", name + (":" + ",".join(f"{k}={v}" for k, v in params.items()) if params else "")],
    st.sampled_from(["gl", "sp", "so", "gl_C", "sl_C", "sp_C", "u", "su", "gl_H", "delta_gl", "product_gl",
                     "tangent_gl", "lagrangian_symplectic", "nope"]),
    st.dictionaries(st.sampled_from(["n", "m", "p", "q", "k", "x"]), st.sampled_from(["-1", "0", "1", "2", "3", "abc"]),
                    max_size=3),
)


# builder shorthand with the ambient dimension it gives
SHORTHAND = [("gl:n=3", 3), ("sp:m=2", 4), ("so:p=4", 4), ("so:p=2,q=1", 3), ("gl_C:m=2", 4), ("u:p=1,q=1", 4),
             ("su:m=2", 4), ("delta_gl:m=2", 4), ("product_gl:n=4,p=2", 4), ("tangent_gl:m=2", 4),
             ("lagrangian_symplectic:m=1", 3), ("gl_H:k=1", 4), ("gl:n=7", 7), ("nope:n=3", 3)]
SPEC_KEYS = ["basis", "builder", "params", "J", "g", "hpc", "omega", "lagrangian", "name", "validate"]
# a zero denominator, a JSON float and a JSON bool are not rationals
SPEC_ENTRIES = ENTRIES + ["1/0", 0.5, True]
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(SPEC_ENTRIES + ["gl", "x"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(SPEC_KEYS), inner, max_size=3)),
    max_leaves=12,
)


@st.composite
def explicit_specs(draw):
    """An inline JSON algebra with an explicit basis (diagonal ones are
    closed under the bracket), perhaps a structure or unchecked, perhaps
    malformed; returns (spec text, ambient dimension)."""
    n = draw(st.integers(1, 4))
    square = matrices(st.just(n), SPEC_ENTRIES).map(json.loads)
    diagonal = st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n).map(
        lambda d: [[x if i == j else "0" for j in range(n)] for i, x in enumerate(d)]
    )
    spec = {"basis": draw(st.lists(st.one_of(diagonal, square), min_size=0, max_size=3))}
    for key in draw(st.lists(st.sampled_from(["J", "g", "omega", "hpc", "lagrangian"]), max_size=1)):
        spec[key] = draw(st.one_of(square, st.lists(square, min_size=3, max_size=3), json_values))
    if draw(st.booleans()):
        spec["validate"] = draw(st.one_of(st.just(False), json_values))
    if not draw(st.integers(0, 4)):
        spec = {**draw(st.dictionaries(st.sampled_from(SPEC_KEYS), json_values, max_size=2)), **spec}
    return json.dumps(spec), n


junk_specs = json_values.map(lambda v: (json.dumps(v) if isinstance(v, dict) else "{" + json.dumps(v), 3))
# two in five algebras are shorthand, two explicit, one junk
algebras = st.integers(0, 4).flatmap(lambda i: junk_specs if i == 0 else st.sampled_from(SHORTHAND) if i % 2 else explicit_specs())


@st.composite
def check_and_flat(draw):
    """check or flat on an algebra, f mostly of the size it needs, and
    for check a hyperplane map of any size."""
    spec, n = draw(algebras)
    sizes = st.one_of(st.just(max(n - 1, 1)), st.integers(1, 4))
    f = draw(st.one_of(matrices(sizes), matrices(sizes, SPEC_ENTRIES)))
    argv = [draw(st.sampled_from(["check", "flat"])), "--algebra", spec, "--f", f]
    if argv[0] == "check":
        argv += draw(flag("--hyperplane-map", st.one_of(st.none(), matrices(st.one_of(st.just(n), st.integers(1, 4))))))
    argv += draw(st.sampled_from([[], ["--with-bases"]])) + draw(st.sampled_from([[], ["--format", "text"]]))
    return argv


space_with_bases = st.builds(
    lambda alg, extra: ["space", "--algebra", alg[0], *extra],
    algebras,
    st.sampled_from([[], ["--with-bases"], ["--format", "text"]]),
)

classify_hpc_argv = st.builds(
    lambda f, extra: ["classify-hpc", "--f", f, *extra],
    matrices(st.integers(1, 5)),
    st.sampled_from([[], ["--with-bases"], ["--format", "text"]]),
)


@st.composite
def non_list_rows(draw, sizes=st.integers(1, 4)):
    """A JSON matrix with one row that is not a list: its entries joined
    into a string, an object keyed by them, or a bare entry."""
    rows = json.loads(draw(matrices(sizes)))
    i = draw(st.integers(0, len(rows) - 1))
    rows[i] = draw(st.sampled_from(["".join(rows[i]), dict.fromkeys(rows[i], 1), rows[i][0]]))
    return rows


non_list_row_argv = st.one_of(
    st.builds(
        lambda cmd, f: [cmd, "--algebra", "gl:n=3", "--f", json.dumps(f)],
        st.sampled_from(["check", "flat"]),
        non_list_rows(st.just(2)),
    ),
    non_list_rows(st.integers(2, 4)).map(lambda b: ["space", "--algebra", json.dumps({"basis": [b]})]),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
    return stop.value.code, out.getvalue()


def assert_three_ways(argv):
    code, stdout = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1 and "--format" not in argv:
        report = json.loads(stdout)
        assert "overall" in report or "verdict" in report, argv


@pytest.fixture(autouse=True)
def small_cap(monkeypatch):
    # ambient dimension at most 6 keeps each example fast
    monkeypatch.setenv("TORSIONLAB_MAX_N", "6")


@FUZZ
@given(exists_argv)
def test_fuzz_exists(argv):
    assert_three_ways(argv)


@FUZZ
@given(st.one_of(orbits_argv, space_argv))
def test_fuzz_orbits_and_space(argv):
    assert_three_ways(argv)


@FUZZ_FEWER
@given(check_and_flat())
def test_fuzz_check_and_flat(argv):
    assert_three_ways(argv)


@FUZZ_FEWER
@given(non_list_row_argv)
def test_fuzz_non_list_rows_are_input_errors(argv):
    assert run_main(argv)[0] == 2, argv


@FUZZ_FEWER
@given(st.one_of(classify_hpc_argv, space_with_bases))
def test_fuzz_classify_hpc_and_space_with_bases(argv):
    assert_three_ways(argv)
