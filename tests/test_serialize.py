"""The canonical JSON writer against its oracle, json's indent-2 sorted text."""

import enum
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nagaotree import cli
from nagaotree import serialize as S


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
@given(VALUES)
@example([[], {}, [[]], {"a": {}}, ([], ())])
@example([1, True, 2, False, None])
@example({"\x00\x1fé\ud800": "\udfff\n ", "": [-0.0]})
def test_writer_matches_json(value):
    assert S.dumps_canonical(value) == oracle(value)


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


@pytest.mark.parametrize("command,name,radius", [
    ("tree", "D0", 8), ("codist", "D0", 8),
    ("tree", "D3", 7), ("codist", "D3", 7),
])
def test_cli_reports_match_json(monkeypatch, tmp_path, command, name, radius):
    payloads = []
    writer = S.dumps_canonical

    def record(obj):
        payloads.append(obj)
        return writer(obj)

    monkeypatch.setattr(S, "dumps_canonical", record)
    out = tmp_path / "report.json"
    argv = [command, "--datum", name, "--radius", str(radius), "--out", str(out)]
    assert cli.main(argv) == 0
    [payload] = payloads
    assert out.read_text() == oracle(payload)
