"""Horospheres, horoballs, bounded-level components and the component graph.

For x of positive level, the horoball HB(x) is the component of x in the
forest of vertices of level >= l(x), and the horosphere HS(x) its level-l(x)
part.  Cutting a ball at level i gives the horoballs (components of levels
>= i) and the components of levels <= i; the two families meet in the
level-i horospheres.  One memoised cut (`level_cut`) finds every piece of a
side in one pass over the ball's BFS parents; `horoball`, `horoballs` and
`component_graph` read their pieces off it.  Balls, horoballs and
components are convex, so an in-ball part is a subtree of the ball's BFS
tree: its least id is its top, and every other vertex of it has its BFS
parent in it.

The component graph joins components on a common horosphere: a block graph
with one clique per horosphere.  A geodesic is read off the ball as the
components the tree path meets at level <= i.  A stretch of the path above
i enters and leaves one horoball at two distinct horosphere vertices, which
lie in different components, or the tree would have a cycle; by convexity
the path never returns to a component or a horoball it has left.  So the
projection is a path with no repeated node and no two consecutive edges in
one clique.  Any second path would close a cycle across two cliques, so the
projection is the unique geodesic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from . import tree as T
from . import words as W
from .datum import NagaoDatum
from .errors import LevelTooHigh, LevelZeroBase, NagaoError, NotInGraph
from .tree import TruncatedTree, Vertex


@dataclass(eq=False)
class Piece:
    """In-ball part of a component of the level->=i or level-<=i forest.

    Its level-i vertices (the horosphere of a horoball), its key and the
    relative coordinates seen from each horosphere vertex are computed once,
    on first use.
    """

    i: int
    tree: TruncatedTree
    vertex_ids: list[int]

    @T.memoised
    def horosphere_ids(self) -> tuple[int, ...]:
        return tuple(v for v in self.vertex_ids if self.tree.level(v) == self.i)

    @cached_property
    def key(self) -> Vertex:
        """Canonical node identity: minimal vertex address in the piece."""
        return min(self.vertices(), key=T.address_key)

    @T.memoised
    def relative(self, x_vid: int) -> tuple[Vertex, ...]:
        """w_x^-1 . u for every u in vertex_ids (in order), where w_x is the
        address word of the horosphere vertex x; memoised per x."""
        t, d = self.tree, self.tree.datum
        w_inv = W.delta_inv(d, t.verts[x_vid][0])
        return tuple(T.act_word(d, w_inv, t.verts[u]) for u in self.vertex_ids)

    def vertices(self) -> list[Vertex]:
        return [self.tree.verts[vid] for vid in self.vertex_ids]


@T.memoised
def level_cut(t: TruncatedTree, i: int, above: bool
              ) -> tuple[tuple[Piece, ...], dict[int, Piece]]:
    """The pieces of the ball cut at level i, on the side of levels >= i
    (above) or <= i, in order of least vertex id, and the piece of every
    vertex they cover.  In id order, a kept vertex joins the piece of its
    BFS parent, or else opens a new piece (see the module docstring).
    Memoised per ball."""
    pieces: list[Piece] = []
    piece_of: dict[int, Piece] = {}
    for vid, (_, _, level) in enumerate(t.verts):
        if (level < i) if above else (level > i):
            continue
        piece = piece_of.get(t.adj[vid][0]) if vid else None
        if piece is None:
            piece = Piece(i=i, tree=t, vertex_ids=[])
            pieces.append(piece)
        piece.vertex_ids.append(vid)
        piece_of[vid] = piece
    return tuple(pieces), piece_of


def horoball(t: TruncatedTree, x: Vertex) -> Piece:
    """In-ball part of the horoball of x (level of x must be positive); the
    same object for every vertex of its horosphere."""
    if x[2] == 0:
        raise LevelZeroBase(f"{x} has level 0: horoballs need positive level")
    return level_cut(t, x[2], True)[1][t.vid(x)]


def horoballs(t: TruncatedTree, i: int) -> tuple[Piece, ...]:
    """The in-ball level-i horoballs, one per horosphere, in order of least
    vertex id (in a ball about the base vertex, a horosphere vertex)."""
    if i == 0:
        raise LevelZeroBase(f"level {i}: horoballs need positive level")
    return level_cut(t, i, True)[0]


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
class ComponentGraph:
    """The graph on level-<=i components visible inside a ball.

    Nodes are keyed by the minimal vertex address of the component; each
    edge stores its unique witness pair (x, y): level-i vertices on a shared
    horosphere, x in the first component, y in the second.
    """

    i: int
    tree: TruncatedTree
    components: dict[Vertex, Piece]
    edges: dict[Vertex, list[Vertex]]
    edge_witness: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]]
    comp_of_vid: dict[int, Vertex] = field(repr=False, default_factory=dict)

    def node_keys(self) -> list[Vertex]:
        return sorted(self.components, key=T.address_key)

    def key_of(self, v: Vertex) -> Vertex | None:
        """The key of the component of v; None when v is outside the ball
        or above level i."""
        return self.comp_of_vid.get(self.tree.index.get(v, -1))

    def witness(self, a: Vertex, b: Vertex) -> tuple[Vertex, Vertex]:
        wit = self.edge_witness.get((a, b))
        if wit is None:
            raise NotInGraph(f"components {a} and {b} are not adjacent")
        return wit

    def geodesic(self, a: Vertex, b: Vertex) -> list[Vertex]:
        """Unique geodesic between two nodes: the components that the tree
        path from a to b meets at level <= i, in order (see the module
        docstring for why this is the geodesic)."""
        if a not in self.components or b not in self.components:
            raise NotInGraph("both endpoints must be nodes of the graph")
        t, comp_of_vid = self.tree, self.comp_of_vid
        out = [a]
        for vid in T.geodesic_ids(t, t.vid(a), t.vid(b)):
            key = comp_of_vid.get(vid)  # None above level i
            if key is not None and key != out[-1]:
                out.append(key)
        return out


@T.memoised
def component_graph(t: TruncatedTree, i: int) -> ComponentGraph:
    """All level-<=i components meeting the ball, with horosphere edges."""
    if i < 1:
        raise LevelTooHigh("component graphs need a level bound i >= 1")
    pieces, piece_of = level_cut(t, i, False)
    components = {comp.key: comp for comp in pieces}
    comp_of_vid = {vid: comp.key for vid, comp in piece_of.items()}
    edges: dict[Vertex, list[Vertex]] = {key: [] for key in components}
    witness: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]] = {}
    for hb in horoballs(t, i):
        for xa, xb in combinations(hb.horosphere_ids(), 2):
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
