"""JSON and DOT serialization for addresses, trees, graphs and reports,
and the shared check tally of the reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def tree_to_dot(t) -> str:
    """DOT export with same-level vertices ranked together."""
    lines = ["graph ball {", "  rankdir=TB;"]
    by_level: dict[int, list[int]] = {}
    for vid, v in enumerate(t.verts):
        by_level.setdefault(v[2], []).append(vid)
    for lev in sorted(by_level):
        ids = " ".join(f'v{i};' for i in by_level[lev])
        lines.append(f"  {{ rank=same; {ids} }}")
    for vid, v in enumerate(t.verts):
        lines.append(f'  v{vid} [label="{vertex_label(v)}" level={v[2]}];')
    for a in range(t.n):
        for b in t.adj[a]:
            if a < b:
                lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines)


def component_graph_to_dot(g) -> str:
    """DOT export of a component graph, edges labelled by witness pairs."""
    lines = [f"graph components_{g.i} {{"]
    ids = {key: n for n, key in enumerate(g.node_keys())}
    for key, n in ids.items():
        lines.append(f'  n{n} [label="{vertex_label(key)}"];')
    for (a, b), (x, y) in sorted(g.edge_witness.items()):
        lines.append(
            f'  n{ids[a]} -- n{ids[b]} '
            f'[label="{vertex_label(x)}~{vertex_label(y)}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def dump_json(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: fixed key order, no whitespace drift."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


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
