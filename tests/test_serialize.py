"""The canonical JSON writer against its oracle, json's indent-2 sorted text."""

import enum
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import twisted_datum
from nagaotree import cli
from nagaotree import datum as D
from nagaotree import serialize as S
from nagaotree import tree as T


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def materialise(obj):
    """`obj` with every `Rows` made into a list and every `Address(v)` into
    `vertex_to_json(v)`, for the oracle."""
    if isinstance(obj, S.Address):
        return S.vertex_to_json(obj.v)
    if isinstance(obj, (list, tuple, S.Rows)):
        return [materialise(v) for v in obj]
    if isinstance(obj, dict):
        return {k: materialise(v) for k, v in obj.items()}
    return obj


def write_in_batches(obj, batch: int) -> list[str]:
    """The sink calls of `write_canonical` with `BATCH` patched to `batch`."""
    calls: list[str] = []
    with mock.patch.object(S, "BATCH", batch):
        S.write_canonical(obj, calls.append)
    return calls


# every code point, control characters and lone surrogates included
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                             exclude_categories=()))

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    TEXT,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        # bools next to ints: not a list of plain ints
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(TEXT, children, max_size=6),
        st.dictionaries(st.integers(), children, max_size=6),
    )


VALUES = st.recursive(LEAVES, containers, max_leaves=40)


class Level(enum.IntEnum):
    ONE = 1


class Tag(str):
    pass


@settings(max_examples=400, deadline=None)
@given(VALUES, st.integers(min_value=1, max_value=4))
@example([[], {}, [[]], {"a": {}}, ([], ())], 1)
@example([1, True, 2, False, None], 2)
@example({"\x00\x1fé\ud800": "\udfff\n ", "": [-0.0]}, 3)
def test_writer_matches_json(value, batch):
    # a small batch puts the sink's call boundaries inside values
    text = oracle(value)
    assert S.dumps_canonical(value) == text
    assert "".join(write_in_batches(value, batch)) == text


@pytest.mark.parametrize("value", [
    {"10": 1, "2": 2},
    {10: 1, 2: [2, 3], -1: None},
    Level.ONE,
    [Level.ONE, 2, {"k": Level.ONE}],
    {Level.ONE: "one", 2: "two"},
    Tag("tag"),
    {Tag("b"): Tag("x"), "a": [Tag("y")]},
    {1.5: 0, -0.5: 1, math.inf: 2},
    {True: 1, False: 0},
    {None: 0},
], ids=["str-keys-sort-as-text", "int-keys", "intenum", "intenum-in-list",
        "intenum-key", "str-subclass", "str-subclass-key", "float-keys",
        "bool-keys", "none-key"])
def test_writer_fixed_cases(value):
    assert S.dumps_canonical(value) == oracle(value)


@pytest.mark.parametrize("value", [set(), object(), {"a": [set()]},
                                   {(1, 2): 0}],
                         ids=["set", "object", "nested-set", "tuple-key"])
def test_writer_refuses_as_json_does(value):
    with pytest.raises(TypeError) as want:
        oracle(value)
    with pytest.raises(TypeError) as got:
        S.dumps_canonical(value)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_writer_batches_are_fixed_size():
    # every sink call but the last joins exactly BATCH chunks, one per
    # string here, each with one newline
    value = [str(i) for i in range(20)]
    calls = write_in_batches(value, 3)
    assert "".join(calls) == oracle(value)
    assert len(calls) == 7
    assert all(call.count("\n") == 3 for call in calls[:-1])


class Counting:
    """A `make` that records how often the writer calls it."""

    def __init__(self, rows):
        self.rows = rows
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return iter(self.rows)


ROWS_CASES = {
    "empty": [],
    "ints": [3, -1, 2 ** 70, 0],
    "int-lists": [[0, 1], [0, 2], [1, 3]],
    "dicts": [{"id": 0, "level": 1, "word": []}, {"id": 1, "b": None}],
    "mixed": [1, True, "s", 2.5, [], {}],
}


@pytest.mark.parametrize("rows", list(ROWS_CASES.values()), ids=list(ROWS_CASES))
@pytest.mark.parametrize("batch", [1, 2, S.BATCH, 4096])
def test_rows_written_as_their_list(rows, batch):
    make = Counting(rows)
    value = {"rows": S.Rows(len(rows), make), "after": [1, 2]}
    want = oracle({"rows": rows, "after": [1, 2]})
    assert "".join(write_in_batches(value, batch)) == want
    # an empty Rows is written as [] without making its rows
    assert make.calls == (1 if rows else 0)


def test_nested_rows_written_as_their_list():
    inner = [Counting([[0, 1], [1, 2]]), Counting([]), Counting([{"a": 1}])]
    outer = Counting([S.Rows(len(m.rows), m) for m in inner])
    value = [S.Rows(3, outer)]
    want = [[[[0, 1], [1, 2]], [], [{"a": 1}]]]
    assert S.dumps_canonical(value) == oracle(want)
    assert [m.calls for m in [outer] + inner] == [1, 1, 0, 1]


def ball_vertices(name: str, radius: int) -> list:
    d = twisted_datum() if name == "twisted" else D.builtin(name)
    return T.ball(d, T.base_vertex(), radius).verts


def d0_r12_high_positions() -> list:
    """The D0 r12 vertices with a payload position of 10 or more, whose keys
    sort as text ("10" before "9"), and a D0 address with payload positions
    2, 10 and 11."""
    verts = [v for v in ball_vertices("D0", 12)
             if any(j >= 10 for _, pay in v[0] for j, _ in pay)]
    v = (((1, ((2, 1), (10, 1), (11, 1))),), 2, 1)
    T.validate_address(D.builtin("D0"), v)
    return verts + [v]


ADDRESS_CASES = {
    "D0": lambda: ball_vertices("D0", 5),
    "D1": lambda: ball_vertices("D1", 5),
    "D2": lambda: ball_vertices("D2", 3),
    "D3": lambda: ball_vertices("D3", 5),
    "twisted": lambda: ball_vertices("twisted", 5),
    "base": lambda: [T.base_vertex()],
    "level-0-word": lambda: [(((1, ((1, 1),)),), 0, 0)],
    "D0-r12-positions-10-11": d0_r12_high_positions,
}


def nest(value, depth: int):
    """`value` inside `depth` containers, lists and dicts in turn."""
    for n in range(depth):
        value = [value, 0] if n % 2 else {"a": value, "b": 0}
    return value


@pytest.mark.parametrize("case", list(ADDRESS_CASES), ids=list(ADDRESS_CASES))
@pytest.mark.parametrize("batch", [1, S.BATCH])
def test_address_written_as_its_vertex_json(case, batch):
    verts = ADDRESS_CASES[case]()
    assert verts
    for depth in range(5):
        value = nest([S.Address(v) for v in verts], depth)
        want = oracle(nest([S.vertex_to_json(v) for v in verts], depth))
        assert "".join(write_in_batches(value, batch)) == want
        # a lone address, at its own nesting depth
        value = nest(S.Address(verts[-1]), depth)
        want = oracle(nest(S.vertex_to_json(verts[-1]), depth))
        assert "".join(write_in_batches(value, batch)) == want


def test_address_memo_keyed_by_indent():
    # one call writes the same syllables at several indents
    verts = ball_vertices("D3", 4)
    value = [nest([S.Address(v) for v in verts], depth) for depth in range(5)]
    assert S.dumps_canonical(value) == oracle(materialise(value))


def test_generators_refused_as_json_does():
    # only Rows stands for a list: any other iterable is refused
    with pytest.raises(TypeError):
        S.dumps_canonical({"rows": (r for r in [1, 2])})


@pytest.mark.parametrize("command,name,radius", [
    ("tree", "D0", 8), ("codist", "D0", 8),
    ("tree", "D1", 6), ("codist", "D1", 6),
    ("tree", "D2", 4), ("codist", "D2", 4),
    ("tree", "D3", 7), ("codist", "D3", 7),
])
def test_cli_reports_match_json(monkeypatch, tmp_path, command, name, radius):
    payloads = []
    writer = S.write_canonical

    def record(obj, write):
        payloads.append(obj)
        return writer(obj, write)

    monkeypatch.setattr(S, "write_canonical", record)
    out = tmp_path / "report.json"
    argv = [command, "--datum", name, "--radius", str(radius), "--out", str(out)]
    assert cli.main(argv) == 0
    [payload] = payloads
    assert out.read_text() == oracle(materialise(payload))


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak RSS of the child from /proc")
@pytest.mark.parametrize("command", ["tree", "codist"])
def test_d2_r6_report_streams_within_100_mb(tmp_path, command):
    # the ball takes about 46 MB; holding the report's object tree or its
    # 32.5 MB of text as well (about 260 MB in all) fails the bound.
    # The child prints its VmHWM, not its ru_maxrss: Linux carries the peak
    # RSS of the process that starts a child over into the child's
    # ru_maxrss, and here that is the whole test session.
    code = ("import sys\n"
            "from nagaotree import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "status = open('/proc/self/status').read()\n"
            "print(rc, status.split('VmHWM:')[1].split()[0])\n")
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--datum", "D2", "--radius", "6",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(S.__file__).resolve().parents[1])))
    assert proc.returncode == 0, proc.stderr
    rc, peak_kib = map(int, proc.stdout.split())
    assert rc == 0
    assert out.stat().st_size > 20_000_000
    assert peak_kib / 1024 < 100
