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


def flag(name, strategy):
    return strategy.map(lambda v: [] if v is None else [name, str(v)])


def matrices(sizes=st.integers(1, 5)):
    return sizes.flatmap(
        lambda k: st.lists(st.lists(st.sampled_from(ENTRIES), min_size=k, max_size=k), min_size=k, max_size=k)
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


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
    return stop.value.code, out.getvalue()


def assert_three_ways(argv):
    code, stdout = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
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
