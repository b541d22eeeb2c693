"""The codistance facet: the level function as a codistance from a fixed
opposite vertex, the one-sided codistance axioms on truncations, vertex
types, and the infinite star (the union of the standard rays).

Only the codistance family from the fixed negative base vertex is modeled;
the negative tree itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from . import tree as T
from . import words as W
from .serialize import Address, Rows, Tally
from .tree import TruncatedTree, Vertex


@dataclass
class CodistanceTable:
    """Codistance from the fixed negative base vertex, tabulated on a ball."""

    base_tag: ClassVar[str] = "v-"
    values: dict[Vertex, int]

    def to_json(self) -> dict:
        """The report of the table, with its value rows, in address order,
        as `Rows`."""
        values = self.values
        return {
            "base": self.base_tag,
            "values": Rows(len(values), lambda: (
                [Address(v), values[v]]
                for v in sorted(values, key=T.address_key))),
        }


def synthesize_codistance(t: TruncatedTree) -> CodistanceTable:
    """The codistance from the negative base vertex is the level function."""
    return CodistanceTable({v: v[2] for v in t.verts})


def verify_codist(table: CodistanceTable, t: TruncatedTree) -> Tally:
    """One-sided codistance axioms at every interior vertex.

    With m the value at x: every neighbor has value m - 1 or m + 1; when
    m > 0 exactly one neighbor has value m + 1; when m = 0 all neighbors
    have value 1 (no uniqueness constraint).
    """
    rep = Tally(cap=10)
    for vid in t.interior_ids():
        v = t.verts[vid]
        m = table.values[v]
        ups = 0
        bad = None
        for uid in t.adj[vid]:
            u = t.verts[uid]
            mu = table.values[u]
            if abs(mu - m) != 1:
                bad = {"x": str(v), "m": m, "neighbor": str(u), "value": mu,
                       "axiom": "neighbors differ by one"}
                break
            if mu == m + 1:
                ups += 1
        if bad is None and m > 0 and ups != 1:
            bad = {"x": str(v), "m": m, "ups": ups,
                   "axiom": "unique ascent for m > 0"}
        if bad is None and m == 0 and ups != len(t.adj[vid]):
            bad = {"x": str(v), "m": 0, "ups": ups,
                   "axiom": "all neighbors ascend from an opposite vertex"}
        rep.count(bad)
    return rep


def infinite_star(t: TruncatedTree) -> list[Vertex]:
    """The union of the k standard rays inside the ball.

    This is the truncated fundamental domain of the free-product action:
    every ball vertex is the translate of exactly one star vertex.
    """
    d = t.datum
    out = [T.base_vertex()]
    for s in range(1, d.k + 1):
        for i in range(1, t.radius + 1):
            v = (W.EMPTY, s, i)
            if v in t:
                out.append(v)
    return out


def vertex_type(v: Vertex) -> int:
    """The parity class of a vertex (level mod 2 = distance parity)."""
    return v[2] % 2
