"""JSON and DOT serialization for addresses, trees and reports,
and the shared check tally of the reports.

Every report is written by one canonical JSON writer, `write_canonical(obj,
write)`: its text is exactly `json.dumps(obj, indent=2, sort_keys=True) +
"\n"`.  It exists because `indent` makes `json` leave its C encoder for the
pure-Python one on the supported Python versions (3.10, 3.11), and the large
ball and codistance reports spend most of their time there.  The writer
walks the containers itself and encodes the leaves with json's C string
encoder and `int.__repr__`.  Unlike json, it does not detect circular
containers: no report contains one.

The sink contract: `write` is any callable that takes a str, such as the
`write` of a file opened in text mode, `sys.stdout.write`, or the `append`
of a list.  The writer buffers its chunks and calls `write` once per
`BATCH` chunks and once more at the end; the text of all the calls, in
order, is the report.  `dumps_canonical` is the same writer with a list as
its sink.  A value json refuses raises json's own TypeError where the writer
meets it, so a write that fails part way leaves a partial output in the
sink.  Every report the library builds holds only values json accepts, and
`Rows`, so this cannot happen for them.

The `Rows` contract: `Rows(n, make)` stands for a list of `n` rows that
`make()` returns as an iterable of exactly `n` rows, so a large report never
holds all its rows at once.  The writer treats it as a list: it writes `[]` when `n == 0`, and
otherwise iterates it exactly once (one call of `make`), writing each row
as it comes.  It never takes the list-of-ints fast path on it.  No other
iterable stands for a list.

The `Address` rule: `Address(v)` stands for `vertex_to_json(v)`, and the
writer writes exactly that dict's text.  The keys `level`, `ray` and `word`
come in sorted order, and each syllable of the word is written from a memo
keyed by `(syllable, indent)`.  The memo is filled by the generic writer
itself, so key order, escaping and indentation stay json's; it lives for
one `write_canonical` call.  A report's addresses repeat few distinct
syllables (282 among 35,487 in the D0 r12 ball), so each is formatted once
per indent, not once per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any

from . import words as W
from .datum import NagaoDatum


def vertex_to_json(v) -> dict:
    w, s, i = v
    return {"word": W.word_to_json(w), "ray": s, "level": i}


def vertex_from_json(d: NagaoDatum, obj: dict):
    return (W.word_from_json(d, obj["word"]), int(obj["ray"]), int(obj["level"]))


def vertex_label(v) -> str:
    """Compact human-readable address label for DOT output."""
    w, s, i = v
    if not w:
        core = "e"
    else:
        core = ".".join(
            f"{sy}:" + ",".join(f"{j}^{u}" for j, u in pay) for sy, pay in w
        )
    return f"[{core}|s{s}|L{i}]"


def tree_to_dot(t):
    """DOT export with same-level vertices ranked together, as lines
    (each ending in a newline) for a sink."""
    yield "graph ball {\n"
    yield "  rankdir=TB;\n"
    by_level: dict[int, list[int]] = {}
    for vid, v in enumerate(t.verts):
        by_level.setdefault(v[2], []).append(vid)
    for lev in sorted(by_level):
        ids = " ".join(f'v{i};' for i in by_level[lev])
        yield f"  {{ rank=same; {ids} }}\n"
    for vid, v in enumerate(t.verts):
        yield f'  v{vid} [label="{vertex_label(v)}" level={v[2]}];\n'
    for a, b in t.edges():
        yield f"  v{a} -- v{b};\n"
    yield "}\n"


class Rows:
    """A list of `n` rows that `make()` returns when the writer reaches it
    (see the module docstring); each iteration calls `make` afresh."""

    __slots__ = ("n", "make")

    def __init__(self, n: int, make):
        self.n = n
        self.make = make

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.make())


class Address:
    """The address of the vertex `v` in a report, written as the text of
    `vertex_to_json(v)` (see the module docstring)."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


# chunks the writer buffers per call of its sink; a whole address is one
# chunk, so the batch is kept small enough not to raise the peak memory
BATCH = 512


def write_canonical(obj: Any, write) -> None:
    """Write the text of `json.dumps(obj, indent=2, sort_keys=True) + "\n"`
    to the sink `write`, in batches of `BATCH` chunks."""
    chunks: list[str] = []

    def out(chunk: str) -> None:
        chunks.append(chunk)
        if len(chunks) >= BATCH:
            write("".join(chunks))
            chunks.clear()

    chunks.append(_write_value(obj, "", "\n", out, {}) + "\n")
    write("".join(chunks))


def dumps_canonical(obj: Any) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True) + "\n"`,
    from `write_canonical` with a list as its sink."""
    parts: list[str] = []
    write_canonical(obj, parts.append)
    return "".join(parts)


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        write_canonical(obj, fh.write)


_LITERALS = {True: "true", False: "false", None: "null"}


def _write_value(o: Any, pre: str, nl: str, out, memo: dict) -> str:
    """Pass `pre` and then the text of `o` to `out`, at the indent `nl`
    ("\n" and the indent of `o`'s line), and return the text that still
    closes `o`.  `memo` holds the syllable texts of the addresses met so far.

    Separators, indents and closing brackets are handed on and merged into
    the next chunk, so there is one chunk per leaf, per list of ints or per
    address.
    """
    kind = type(o)
    if kind is Address:
        out(pre + _address_text(o.v, nl, memo))
        return ""
    if kind is str:
        out(pre + encode_basestring_ascii(o))
        return ""
    if kind is int:
        out(pre + int.__repr__(o))
        return ""
    if o is True or o is False or o is None:
        out(pre + _LITERALS[o])
        return ""
    if isinstance(o, (list, tuple, Rows)):
        if not o:
            out(pre + "[]")
            return ""
        inner = nl + "  "
        if kind is not Rows and all(type(v) is int for v in o):
            out(pre + "[" + inner + ("," + inner).join(map(int.__repr__, o)))
            return nl + "]"
        items = iter(o)
        tail = _write_value(next(items), pre + "[" + inner, inner, out, memo)
        for v in items:
            tail = _write_value(v, tail + "," + inner, inner, out, memo)
        return tail + nl + "]"
    if isinstance(o, dict):
        if not o:
            out(pre + "{}")
            return ""
        inner = nl + "  "
        tail = pre + "{"
        for k, v in sorted(o.items()):
            key = k if isinstance(k, str) else _key_text(k)
            tail = _write_value(v, tail + inner + encode_basestring_ascii(key)
                                + ": ", inner, out, memo) + ","
        return tail[:-1] + nl + "}"
    out(pre + json.dumps(o))
    return ""


def _text(o: Any, nl: str, memo: dict) -> str:
    """The text of `o` at the indent `nl`, from the generic writer."""
    parts: list[str] = []
    parts.append(_write_value(o, "", nl, parts.append, memo))
    return "".join(parts)


def _address_text(v, nl: str, memo: dict) -> str:
    """The text of `vertex_to_json(v)` at the indent `nl`."""
    w, s, i = v
    inner = nl + "  "
    if w:
        syl_nl = inner + "  "
        texts = []
        for syl in w:
            key = (syl, syl_nl)
            text = memo.get(key)
            if text is None:
                text = memo[key] = _text(W.word_to_json((syl,))[0], syl_nl,
                                         memo)
            texts.append(text)
        word = "[" + syl_nl + ("," + syl_nl).join(texts) + inner + "]"
    else:
        word = "[]"
    return ("{" + inner + '"level": ' + int.__repr__(i) + "," + inner
            + '"ray": ' + int.__repr__(s) + "," + inner + '"word": ' + word
            + nl + "}")


def _key_text(k: Any) -> str:
    """A non-str dict key as json converts it to a string."""
    if isinstance(k, (int, float)) or k is None:
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


@dataclass(kw_only=True)
class Tally:
    """Checked and skipped instance counts of one check family, with one
    entry per failed instance; reports show at most `cap` entries.

    The paper's conditions are checked only on the instances a truncation
    shows, so every check family keeps this same bookkeeping.
    """

    cap: int = 20
    checked: int = 0
    skipped: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked > 0

    def count(self, failure: dict | None = None) -> None:
        """Count one checked instance, failed when `failure` is given."""
        self.checked += 1
        if failure is not None:
            self.failures.append(failure)

    def to_json(self) -> dict:
        return {"checked": self.checked, "passed": self.passed,
                "failures": self.failures[:self.cap]}
