import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import cli, reporting

# strings that need every kind of escape: quotes, backslashes, control
# characters, DEL, non-ASCII text, astral characters
awkward = st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\U0001f600", 'a"b\\c\td', "p/q", "-3/4", ""])
strings = st.text(max_size=8) | awkward
scalars = st.none() | st.booleans() | st.integers() | st.floats() | strings


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(strings, children, max_size=4)
    )


# a list of strings (a basis line) takes the writer's one-join route
values = st.recursive(scalars | st.lists(strings, max_size=6), containers, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(values)
def test_writer_is_json_dumps_with_sorted_keys_and_indent(obj):
    assert reporting.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        {}, [], (), "", {"a": {}, "b": [], "c": [[]], "d": [{}]}, [[], ["x"], [1, "x"]],
        {2: "b", 10: "a"}, {None: 0}, {True: [], False: {}}, {1.5: "x", -0.0: "y"},
    ],
)
def test_writer_on_empty_containers_and_non_string_keys(obj):
    assert reporting.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def grid(*rows):
    return json.dumps([row.split() for row in rows])


# one JSON report of every subcommand, on inputs small enough for tier-1
REPORTS = {
    "space": ["space", "--algebra", "so:p=3,q=1", "--with-bases"],
    "check-certificate": ["check", "--algebra", "gl_C:m=2", "--with-bases", "--f", grid("0 -1 0", "1 0 0", "0 0 0")],
    "check-refusal": ["check", "--algebra", "sp:m=2", "--f", grid("0 0 1", "0 0 0", "0 0 0")],
    "flat": ["flat", "--algebra", "sp:m=2", "--with-bases", "--f", grid("0 1 0", "0 0 0", "0 0 0")],
    "exists": ["exists", "product", "--p", "2", "--f", grid("1 0 0", "0 2 0", "0 0 3")],
    "orbits": ["orbits", "--group", "product", "--n", "4", "--p", "2"],
    "classify-hpc": ["classify-hpc", "--with-bases", "--f", grid("1 0 0", "0 1 0", "0 0 2")],
    "verify-paper": ["verify-paper", "--target", "invariants", "--format", "json"],
}


def plain(value):
    """value with reporting.view applied at every node: the JSON values dump writes."""
    value = reporting.view(value)
    if isinstance(value, dict):
        return {key: plain(x) for key, x in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    return value


@pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS.keys())
def test_writer_is_json_dumps_on_every_report(argv, monkeypatch, capsys):
    # dump calls itself through the module name, so the recorder sees every
    # node; the report itself is the one call at the top indentation
    written = []
    real = reporting.dump

    def recording(obj, write, newline="\n"):
        if newline == "\n":
            written.append(obj)
        real(obj, write, newline)

    monkeypatch.setattr(reporting, "dump", recording)
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert len(written) == 1
    assert capsys.readouterr().out == json.dumps(plain(written[0]), sort_keys=True, indent=2) + "\n"


def test_dumps_converts_inside_every_container():
    from fractions import Fraction

    from torsionlab.engine import ConnectionTensor
    from torsionlab.linalg import Mat, Subspace

    value = {
        "pair": (Fraction(1, 2), [Fraction(3), (Fraction(-4, 6),)]),
        "mat": Mat([[1, Fraction(-2, 3)]]),
        "space": Subspace.span(2, [(2, 4)]),
        "nabla": ConnectionTensor(2, range(8)),
        "plain": (True, None, "x", 3),
    }
    assert json.loads(reporting.dumps(value)) == {
        "pair": ["1/2", ["3", ["-2/3"]]],
        "mat": [["1", "-2/3"]],
        "space": {"ambient_dim": 2, "dim": 1, "basis": [["1", "2"]]},
        "nabla": [[["0", "1"], ["2", "3"]], [["4", "5"], ["6", "7"]]],
        "plain": [True, None, "x", 3],
    }


class Discard:
    """A stdout that keeps only the number and the longest of its writes."""

    def __init__(self):
        self.written = self.longest = 0

    def write(self, text):
        self.written += len(text)
        self.longest = max(self.longest, len(text))

    def flush(self):
        pass


def test_space_with_bases_is_written_as_it_is_converted(monkeypatch):
    import tracemalloc

    out = Discard()
    monkeypatch.setattr("sys.stdout", out)
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as done:
            cli.main(["space", "--algebra", "gl:n=8", "--with-bases"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert done.value.code == 0 and out.written > 4_000_000
    # the report is never held whole: not as a converted copy, not as one string
    assert peak < out.written / 4 and out.longest <= 8192
