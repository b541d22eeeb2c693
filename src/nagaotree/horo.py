"""Horospheres, horoballs, bounded-level components and the component graph.

For a vertex x of positive level, the horoball HB(x) is the connected
component of x in the forest spanned by all vertices of level >= l(x); the
horosphere HS(x) is its set of level-l(x) vertices.  For a level bound i,
the components of the level-<=i forest form the nodes of a graph whose edges
join components touching a common horosphere at level i.  Both families are
computed extensionally inside a built ball; all sets are convex, so their
in-ball parts are connected and flood fill is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import tree as T
from . import words as W
from .datum import NagaoDatum
from .errors import LevelTooHigh, LevelZeroBase, NagaoError, NotInGraph
from .tree import TruncatedTree, Vertex


def level_increasing_ray(d: NagaoDatum, x: Vertex, length: int) -> list[Vertex]:
    """The unique ray from x along which the level increases by 1 per step."""
    if x[2] == 0:
        raise LevelZeroBase(f"{x} has level 0: no level-increasing ray")
    out = [x]
    for _ in range(length):
        out.append(T.up_neighbor(d, out[-1]))
    return out


@dataclass
class HoroballView:
    """HB(base) intersected with a ball; horosphere = its level-l(base) part.

    The horosphere ids are computed once; the relative coordinates of the
    vertices seen from each horosphere vertex are memoised on first use.
    """

    base: Vertex
    tree: TruncatedTree
    vertex_ids: list[int]

    def __post_init__(self):
        lv = self.base[2]
        self._sphere = tuple(vid for vid in self.vertex_ids
                             if self.tree.level(vid) == lv)

    @property
    def level(self) -> int:
        return self.base[2]

    def horosphere_ids(self) -> tuple[int, ...]:
        return self._sphere

    @T.memoised
    def relative(self, x_vid: int) -> tuple[Vertex, ...]:
        """w_x^-1 . u for every u in vertex_ids (in order), where w_x is the
        address word of the horosphere vertex x; memoised per x."""
        t = self.tree
        d = t.datum
        w_inv = W.delta_inv(d, t.verts[x_vid][0])
        return tuple(T.act_word(d, w_inv, t.verts[u]) for u in self.vertex_ids)

    def vertices(self) -> list[Vertex]:
        return [self.tree.verts[vid] for vid in self.vertex_ids]


@T.memoised
def horoball(t: TruncatedTree, x: Vertex) -> HoroballView:
    """In-ball part of the horoball of x (level of x must be positive).

    Memoised per ball: the same horoballs are consulted over and over by
    the membership checks.
    """
    if x[2] == 0:
        raise LevelZeroBase(f"{x} has level 0: horoballs need positive level")
    lv = x[2]
    ids = T.flood(t, t.vid(x), lambda u: t.level(u) >= lv)
    return HoroballView(base=x, tree=t, vertex_ids=ids)


@T.memoised
def horoballs(t: TruncatedTree, i: int) -> tuple[HoroballView, ...]:
    """The in-ball horoballs of the level-i vertices, one per horosphere,
    ordered by the least vertex id on each horosphere.  Memoised per ball."""
    out = []
    seen: set[int] = set()
    for vid in range(t.n):
        if t.level(vid) == i and vid not in seen:
            hb = horoball(t, t.verts[vid])
            seen.update(hb.horosphere_ids())
            out.append(hb)
    return tuple(out)


def horosphere(t: TruncatedTree, x: Vertex) -> list[Vertex]:
    hb = horoball(t, x)
    return [t.verts[vid] for vid in hb.horosphere_ids()]


def in_same_horosphere(d: NagaoDatum, x: Vertex, y: Vertex) -> bool:
    """Exact symbolic test: y lies on the horosphere of x."""
    if x[2] != y[2] or x[2] == 0:
        return False
    return x == y or _standard_offset(d, x, y) is not None


def _standard_offset(d: NagaoDatum, x: Vertex, y: Vertex):
    """The address word of y after translating x = w.x_{i,s} to the
    standard position x_{i,s}, when that word is the single syllable at ray
    s supported above i (exactly when y lies on the horosphere of x, for
    same-level x and y); None otherwise."""
    w, s, i = x
    wy, sy, _ = T.act_word(d, W.delta_inv(d, w), y)
    if (sy == s and len(wy) == 1 and wy[0][0] == s
            and all(j > i for j, _ in wy[0][1])):
        return wy
    return None


@dataclass
class Component:
    """Connected component of the level-<=i subforest, inside a ball."""

    i: int
    tree: TruncatedTree
    vertex_ids: list[int]

    @property
    def key(self) -> Vertex:
        """Canonical node identity: minimal vertex address in the component."""
        return min((self.tree.verts[v] for v in self.vertex_ids),
                   key=T.address_key)

    def boundary_ids(self) -> list[int]:
        return [v for v in self.vertex_ids if self.tree.level(v) == self.i]

    def vertices(self) -> list[Vertex]:
        return [self.tree.verts[v] for v in self.vertex_ids]


def component(t: TruncatedTree, x: Vertex, i: int) -> Component:
    if x[2] > i:
        raise LevelTooHigh(f"level {x[2]} exceeds the component bound {i}")
    start = t.vid(x)
    ids = T.flood(t, start, lambda u: t.level(u) <= i)
    return Component(i=i, tree=t, vertex_ids=ids)


@dataclass
class ComponentGraph:
    """The graph on level-<=i components visible inside a ball.

    Nodes are keyed by the minimal vertex address of the component; each
    edge stores its unique witness pair (x, y): level-i vertices on a shared
    horosphere, x in the first component, y in the second.
    """

    i: int
    tree: TruncatedTree
    components: dict[Vertex, Component]
    edges: dict[Vertex, list[Vertex]]
    edge_witness: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]]
    comp_of_vid: dict[int, Vertex] = field(repr=False, default_factory=dict)

    def node_keys(self) -> list[Vertex]:
        return sorted(self.components, key=T.address_key)

    def witness(self, a: Vertex, b: Vertex) -> tuple[Vertex, Vertex]:
        wit = self.edge_witness.get((a, b))
        if wit is None:
            raise NotInGraph(f"components {a} and {b} are not adjacent")
        return wit

    def geodesic(self, a: Vertex, b: Vertex) -> list[Vertex]:
        """Unique geodesic between two nodes, by BFS over visible edges."""
        if a not in self.components or b not in self.components:
            raise NotInGraph("both endpoints must be nodes of the graph")
        if a == b:
            return [a]
        prev = {a: None}
        queue = [a]
        while queue:
            nxt = []
            for x in queue:
                for y in self.edges[x]:
                    if y not in prev:
                        prev[y] = x
                        if y == b:
                            path = [y]
                            while prev[path[-1]] is not None:
                                path.append(prev[path[-1]])
                            return list(reversed(path))
                        nxt.append(y)
            queue = nxt
        raise NotInGraph(f"no in-ball path between {a} and {b}")


@T.memoised
def component_graph(t: TruncatedTree, i: int) -> ComponentGraph:
    """All level-<=i components meeting the ball, with horosphere edges."""
    if i < 1:
        raise LevelTooHigh("component graphs need a level bound i >= 1")
    comp_of_vid: dict[int, Vertex] = {}
    components: dict[Vertex, Component] = {}
    for vid in range(t.n):
        if t.level(vid) <= i and vid not in comp_of_vid:
            comp = component(t, t.verts[vid], i)
            key = comp.key
            components[key] = comp
            for u in comp.vertex_ids:
                comp_of_vid[u] = key
    edges: dict[Vertex, list[Vertex]] = {key: [] for key in components}
    witness: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]] = {}
    for hb in horoballs(t, i):
        sphere = hb.horosphere_ids()
        for a_pos in range(len(sphere)):
            for b_pos in range(a_pos + 1, len(sphere)):
                xa, xb = sphere[a_pos], sphere[b_pos]
                ka, kb = comp_of_vid[xa], comp_of_vid[xb]
                # distinct components, seen at most once: anything else would
                # close a cycle in the tree
                if ka == kb or (ka, kb) in witness:
                    raise NagaoError(f"components {ka} and {kb} close a cycle "
                                     f"through {t.verts[xa]} and {t.verts[xb]}")
                witness[(ka, kb)] = (t.verts[xa], t.verts[xb])
                witness[(kb, ka)] = (t.verts[xb], t.verts[xa])
                edges[ka].append(kb)
                edges[kb].append(ka)
    for key in edges:
        edges[key].sort(key=T.address_key)
    return ComponentGraph(i=i, tree=t, components=components, edges=edges,
                          edge_witness=witness, comp_of_vid=comp_of_vid)
