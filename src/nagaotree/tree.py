"""The truncated tree of a directly split Nagao datum.

A vertex address is a triple (word, s, i) naming the vertex word.x_{i,s},
where x_{i,s} is the i-th vertex of the s-th translated standard ray.  The
word is the canonical coset representative modulo the vertex stabilizer, so
address equality is vertex equality.  Level-0 vertices carry s = 0: the free
product acts simply transitively on them and the word alone is the name.

Adjacency, levels and the group action are all symbolic (no truncation
needed); balls, distances and component structure are computed on explicit
BFS truncations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import words as W
from .datum import NagaoDatum
from .errors import NonCanonicalAddress, NotInTruncation
from .serialize import Address, Rows
from .words import Gamma, Word

Vertex = tuple  # (word, s, i)


def base_vertex() -> Vertex:
    return (W.EMPTY, 0, 0)


def ray_vertex(i: int, s: int = 1) -> Vertex:
    """The standard-ray vertex x_{i,s} (x_i when s = 1)."""
    return (W.EMPTY, 0, 0) if i == 0 else (W.EMPTY, s, i)


def address_key(v: Vertex):
    """Canonical total order on addresses: by level, ray, then word."""
    return (v[2], v[1], v[0])


def validate_address(d: NagaoDatum, v: Vertex) -> None:
    w, s, i = v
    if i < 0:
        raise NonCanonicalAddress(f"negative level in {v}")
    if i == 0:
        if s != 0:
            raise NonCanonicalAddress(f"level-0 address must carry s=0: {v}")
    elif not 1 <= s <= d.k:
        raise NonCanonicalAddress(f"ray index {s} out of range 1..{d.k}")
    if not W.is_normal_form(d, w):
        raise NonCanonicalAddress(f"word not in normal form: {v}")
    if W.canon_coset(d, w, i, s) != w:
        raise NonCanonicalAddress(f"word not reduced modulo Stab(x_{{{i},{s}}}): {v}")


def act(d: NagaoDatum, g: Gamma, v: Vertex) -> Vertex:
    """Image of the vertex under a group element (g0, w_g)."""
    g0, wg = g
    if g0 == d.ident0:
        return act_word(d, wg, v)
    w, s, i = v
    w2 = W.gamma0_conj(d, g0, W.delta_mul(d, wg, w))
    s2 = d.nav[g0][s - 1][0] if i > 0 else 0
    return (W.canon_coset(d, w2, i, s2), s2, i)


def act_word(d: NagaoDatum, wg: Word, v: Vertex) -> Vertex:
    """Image under an element of the free product (fast path, no Gamma0 part)."""
    w, s, i = v
    return (W.canon_coset(d, W.delta_mul(d, wg, w), i, s), s, i)


def neighbors(d: NagaoDatum, v: Vertex, checked: bool = True) -> list[Vertex]:
    """All tree neighbors, canonical addresses, deterministic order.

    Level 0: the k vertices w.x_{1,s}, s = 1..k.  Level i > 0: the unique
    up-neighbor w.x_{i+1,s} first, then the q_i down-neighbors
    w u.x_{i-1,s} for u in U_{i,s}, in element order.  `checked=False`
    skips address validation (hot path inside ball construction).
    """
    if checked:
        validate_address(d, v)
    w, s, i = v
    if i == 0:
        return [(W.canon_coset(d, w, 1, t), t, 1) for t in range(1, d.k + 1)]
    out = [(W.canon_coset(d, w, i + 1, s), s, i + 1)]
    table, identity, _, _ = d.root_tables[i]
    down_level = i - 1
    s_down = s if down_level > 0 else 0
    for u in range(len(table)):
        if u == identity:
            w2 = w
        else:
            w2 = W.delta_mul(d, w, ((s, ((i, u),)),))
        out.append((W.canon_coset(d, w2, down_level, s), s_down, down_level))
    return out


@dataclass
class TruncatedTree:
    """Radius-rho ball around a center vertex, with exact addresses.

    Vertices are indexed in BFS discovery order; `adj` is the full in-ball
    adjacency, each list with the BFS parent first (none for the center)
    and then the children in increasing id.  A vertex is interior when all
    its tree neighbors lie in the ball.
    """

    datum: NagaoDatum
    center: Vertex
    radius: int
    verts: list[Vertex]
    index: dict[Vertex, int]
    dist: list[int]
    adj: list[list[int]]

    @property
    def n(self) -> int:
        return len(self.verts)

    def vid(self, v: Vertex) -> int:
        i = self.index.get(v)
        if i is None:
            raise NotInTruncation(f"{v} is outside the radius-{self.radius} ball")
        return i

    def __contains__(self, v: Vertex) -> bool:
        return v in self.index

    def level(self, vid: int) -> int:
        return self.verts[vid][2]

    def is_interior(self, vid: int) -> bool:
        return self.dist[vid] < self.radius

    def interior_ids(self) -> list[int]:
        return [i for i in range(self.n) if self.dist[i] < self.radius]

    def degree(self, vid: int) -> int:
        return len(self.adj[vid])

    def edges(self):
        """The in-ball edges (a, b), a < b, in increasing order.

        `adj[a]` holds the BFS parent of a first (none for the center) and
        then its children in increasing id, since a child's id is given at
        discovery.  The parent's id is below a and every child's above, so
        the pairs with a < b come out sorted with no global sort.
        """
        adj = self.adj
        return ((a, b) for a in range(self.n) for b in adj[a] if a < b)

    def to_json(self) -> dict:
        """The report of the ball, with its vertex and edge rows as `Rows`."""
        verts, dist = self.verts, self.dist
        return {
            "datum": self.datum.name or "custom",
            "radius": self.radius,
            "vertices": Rows(self.n, lambda: (
                {"id": i, "address": Address(v), "level": v[2],
                 "dist": dist[i]}
                for i, v in enumerate(verts))),
            "edges": Rows(sum(map(len, self.adj)) // 2,
                          lambda: ([a, b] for a, b in self.edges())),
        }


def memoised(fn):
    """Keep the results of fn(owner, *args) in owner._memo, one table per
    function, for as long as the owner lives."""

    @functools.wraps(fn)
    def cached(owner, *args):
        try:
            return owner._memo[fn][args]
        except AttributeError:
            owner._memo = {}
        except KeyError:
            pass
        hit = owner._memo.setdefault(fn, {})[args] = fn(owner, *args)
        return hit

    return cached


@memoised
def ball(d: NagaoDatum, center: Vertex, radius: int) -> TruncatedTree:
    """BFS closure of `center` to distance `radius`; memoised per datum."""
    validate_address(d, center)
    verts = [center]
    index = {center: 0}
    dist = [0]
    adj: list[list[int]] = [[]]
    frontier = [0]
    for depth in range(1, radius + 1):
        nxt = []
        for vid in frontier:
            v = verts[vid]
            for u in neighbors(d, v, checked=False):
                uid = index.get(u)
                if uid is None:
                    uid = len(verts)
                    verts.append(u)
                    index[u] = uid
                    dist.append(depth)
                    adj.append([])
                    adj[vid].append(uid)
                    adj[uid].append(vid)
                    nxt.append(uid)
                # an already-seen neighbor is the BFS parent: edge recorded
        frontier = nxt
    return TruncatedTree(datum=d, center=center, radius=radius, verts=verts,
                         index=index, dist=dist, adj=adj)


def distance(t: TruncatedTree, a: Vertex, b: Vertex) -> int:
    """Tree distance via the lowest common ancestor in the BFS structure."""
    return len(geodesic(t, a, b)) - 1


def geodesic(t: TruncatedTree, a: Vertex, b: Vertex) -> list[Vertex]:
    """The unique tree path from a to b, both inside the truncation."""
    return [t.verts[i] for i in geodesic_ids(t, t.vid(a), t.vid(b))]


def geodesic_ids(t: TruncatedTree, ia: int, ib: int) -> list[int]:
    """The ids along the unique tree path between two ball vertex ids."""
    adj, dist = t.adj, t.dist  # the BFS parent of v is adj[v][0]
    up_a, up_b = [ia], [ib]
    # climb from the deeper end until the two ends meet at the branch point
    while ia != ib:
        if dist[ia] >= dist[ib]:
            ia = adj[ia][0]
            up_a.append(ia)
        else:
            ib = adj[ib][0]
            up_b.append(ib)
    return up_a + up_b[-2::-1]


def bfs_depths(sources, nbrs, max_depth: int | None = None) -> dict:
    """BFS depth of every node reachable from `sources` through `nbrs`,
    up to `max_depth` when given, in discovery order."""
    depth = {v: 0 for v in sources}
    frontier = list(depth)
    k = 0
    while frontier and (max_depth is None or k < max_depth):
        k += 1
        nxt = []
        for u in frontier:
            for w in nbrs(u):
                if w not in depth:
                    depth[w] = k
                    nxt.append(w)
        frontier = nxt
    return depth


def flood(t: TruncatedTree, start: int, keep) -> list[int]:
    """Sorted ids of the in-ball component of `start` among the vertices
    whose id satisfies `keep`."""
    return sorted(bfs_depths([start],
                             lambda v: (u for u in t.adj[v] if keep(u))))


# -- level reconstruction from degrees ---------------------------------------

@dataclass
class LevelReconstruction:
    """Levels recoverable from the ball graph and its degree schedule.

    `levels` maps each determined vertex to the unique level consistent with
    every admissible labelling; `ambiguous` is True when no vertex at all is
    pinned down (e.g. biregular trees, where the level function leaves no
    local trace).
    """

    levels: dict[Vertex, int]

    @property
    def ambiguous(self) -> bool:
        return not self.levels


def level_from_degrees(t: TruncatedTree) -> LevelReconstruction:
    """Reconstruct levels from local degrees where they are forced.

    A labelling gives every ball vertex a label in 0..2r+2 such that
    adjacent labels differ by exactly 1, an interior vertex has the degree
    `profile.degree` prescribes for its label, and an interior vertex with
    label m > 0 has exactly one neighbor labelled m + 1.  A vertex is
    determined when exactly one label admits a labelling of the whole ball.

    The constraint graph is the ball itself, a tree, so the feasible labels
    are found exactly without search (Freuder 1982, J. ACM 29(1)).  The
    state of a vertex is its (label, parent label) pair along the BFS tree.
    A bottom-up pass finds the states its subtree admits; a top-down
    rerooting pass finds the states the rest of the ball admits.  The unique
    ascent rule is a count over the children: with `forced` children that
    must sit at m + 1 and `either` that may, a labelling exists iff
    forced <= 1 - [parent at m + 1] <= forced + either.  Both passes cost
    O(n * L) for n vertices and L = 2r + 3 labels.

    For biregular data nothing is determined and the result is flagged
    ambiguous: shifting any admissible labelling up by two produces another
    one, so no label is forced.
    """
    if t.datum.profile.biregular:
        return LevelReconstruction(levels={})
    prof = t.datum.profile
    top = 2 * t.radius + 2
    allowed = [
        [m for m in range(top + 1) if prof.degree(m) == t.degree(vid)]
        if t.is_interior(vid) else range(top + 1)
        for vid in range(t.n)
    ]

    def parent_labels(vid: int, m: int):
        if vid == 0:
            return (None,)
        return [p for p in (m - 1, m + 1) if 0 <= p <= top]

    # sub[v] / rest[v]: the (label, parent label) states of v that its
    # subtree / everything outside its subtree admits
    sub: list[set] = [set() for _ in range(t.n)]
    rest: list[set] = [set() for _ in range(t.n)]

    def kind(c: int, m: int) -> int:
        """2*[child c fits at m+1] + [c fits at m-1], its parent at m."""
        return 2 * ((m + 1, m) in sub[c]) + ((m - 1, m) in sub[c])

    def tally(kids: list[int], m: int) -> list[int]:
        count = [0, 0, 0, 0]
        for c in kids:
            count[kind(c, m)] += 1
        return count

    def fits(vid: int, m: int, ups: int, count: list[int]) -> bool:
        """v at m with `ups` fixed neighbors at m+1 and `count` free children."""
        if count[0]:
            return False
        if m == 0 or not t.is_interior(vid):
            return True
        return count[2] <= 1 - ups <= count[2] + count[3]

    for vid in reversed(range(t.n)):
        kids = t.adj[vid][1:] if vid else t.adj[0]
        for m in allowed[vid]:
            count = tally(kids, m)
            sub[vid].update((m, p) for p in parent_labels(vid, m)
                            if fits(vid, m, p == m + 1, count))
    rest[0] = {(m, None) for m in range(top + 1)}
    for vid in range(t.n):
        kids = t.adj[vid][1:] if vid else t.adj[0]
        for m in allowed[vid]:
            above = [p for p in parent_labels(vid, m) if (m, p) in rest[vid]]
            if not above:
                continue
            count = tally(kids, m)
            for c in kids:
                own = kind(c, m)
                count[own] -= 1
                for mc in (m - 1, m + 1):
                    if 0 <= mc <= top and any(
                            fits(vid, m, (p == m + 1) + (mc == m + 1), count)
                            for p in above):
                        rest[c].add((mc, m))
                count[own] += 1
    feasible = [{m for m, _ in sub[vid] & rest[vid]} for vid in range(t.n)]
    if not feasible[0]:
        raise NotInTruncation("degree data admits no level labelling")
    levels = {t.verts[vid]: next(iter(f))
              for vid, f in enumerate(feasible) if len(f) == 1}
    return LevelReconstruction(levels)
