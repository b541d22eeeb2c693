"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own BFS machinery: ball
sizes come from a degree recursion over the q-schedule, the pieces of a
level cut from a stack walk over the ball's adjacency, group tables from
permutation composition, coset counts from brute-force enumeration, and
vertex-group tables from the semidirect-product formula on digit tuples.
The word-kernel oracles are the plain loop forms of the library kernels:
they reduce a product syllable by syllable over the whole right factor,
filter the whole last payload, and reach every root group through
`d.root(j).group`.  The horo helpers at the end are the test-only views
(rays, horospheres, components, the uniform piece) read off the library's
level cut.  The extension helpers at the end are the parent form of the
greedy matcher, processed in address order by a heap, the per-base-point
form of `check_Li` condition (a), the ray-rotating star map, and the
reversed-walk patch of the component graph.  The small constructions below
the fixtures (`gamma_identity`, `up_neighbor`, `inversion_action`,
`component_graph_to_dot`) have no caller in the library.  The three star
maps (`identity_star`, `rotating_star`, `swap_map`) are the oracles of the
committed files under `maps/`.  `DIGESTS` is `tests/digests.json`, the one
table of report sha256 pins.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from nagaotree import algebra as A
from nagaotree import datum as D
from nagaotree import extension as E
from nagaotree import horo as H
from nagaotree import transport as TR
from nagaotree import tree as T
from nagaotree import words as W
from nagaotree.errors import (CannotExtendInTruncation, LevelTooHigh,
                              LevelZeroBase, NonCanonicalAddress)
from nagaotree.serialize import vertex_label

ROOT = Path(__file__).resolve().parent.parent
MAPS = ROOT / "maps"
DIGESTS = json.loads((ROOT / "tests" / "digests.json").read_text())


def library_digest(key: str) -> str:
    """The pinned sha256 of a library report; tests/test_digests.py finds
    every entry's reader by this call with the key as a literal."""
    return DIGESTS["library"][key]


@pytest.fixture(scope="session")
def d0():
    return D.builtin("D0")


@pytest.fixture(scope="session")
def d1():
    return D.builtin("D1")


@pytest.fixture(scope="session")
def d2():
    return D.builtin("D2")


@pytest.fixture(scope="session")
def d3():
    return D.builtin("D3")


@pytest.fixture(scope="session")
def ball_d0_6(d0):
    return T.ball(d0, T.base_vertex(), 6)


@pytest.fixture(scope="session")
def ball_d2_4(d2):
    return T.ball(d2, T.base_vertex(), 4)


def gamma_identity(d):
    return (d.ident0, W.EMPTY)


def up_neighbor(d, v):
    w, s, i = v
    if i == 0:
        raise NonCanonicalAddress("level-0 vertices have no distinguished up-neighbor")
    return (W.canon_coset(d, w, i + 1, s), s, i + 1)


def inversion_action(acting, target):
    """The order-2 subgroup acts on an abelian target by u -> u^-1."""
    ident = tuple(range(target.order))
    invrow = tuple(target.inv(u) for u in range(target.order))
    rows = {}
    for h in acting.members:
        rows[h] = ident if h == acting.parent.identity else invrow
    return A.GroupAction(acting=acting, target=target, rows=rows)


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


def twisted_datum(corrupt: bool = False):
    """Gamma0 = S3, H0 = C2 acting on U_2 = C3 by inversion: the only test
    datum with a nontrivial root-group action, so the h0-twist runs.  The
    corrupt variant damages one table entry of that action; the datum
    refuses such a schedule, so the damaged slot is swapped in after
    construction."""
    g0 = A.symmetric_group(3)
    h0 = A.generated_subgroup(g0, [1])
    c2 = A.cyclic_group(2)
    c3 = A.cyclic_group(3)
    theta = inversion_action(h0, c3)
    prefix = (D.RootData(group=c2, action=A.trivial_action(h0, c2)),
              D.RootData(group=c3, action=theta))
    period = (D.RootData(group=c2, action=A.trivial_action(h0, c2)),)
    d = D.NagaoDatum(g0, h0, prefix, period,
                     name="twisted" + ("-corrupt" if corrupt else ""))
    if corrupt:
        rows = dict(theta.rows)
        rows[1] = (0, 1, 1)  # one entry damaged: no longer a bijection
        d.prefix = (prefix[0], D.RootData(
            group=c3, action=A.GroupAction(acting=h0, target=c3, rows=rows)))
    return d


# -- oracles ------------------------------------------------------------------

def ball_size_oracle(profile, radius: int) -> int:
    """Vertex count of a ball around the base vertex, by degree recursion.

    States are (level, entered-from-above?) pairs; the base vertex seeds k
    level-1 children, a level-0 vertex continues with k - 1 level-1
    children, and a level-l vertex continues with q_l or q_l - 1 + 1
    children depending on the entry direction.
    """
    total = 1
    layer = Counter({(1, False): profile.k})  # (level, from_up), from base
    for _ in range(radius):
        total += sum(layer.values())
        nxt = Counter()
        for (lv, from_up), count in layer.items():
            if lv == 0:
                nxt[(1, False)] += count * (profile.k - 1)
            elif from_up:
                nxt[(lv - 1, True)] += count * profile.q(lv)
            else:
                nxt[(lv + 1, False)] += count
                nxt[(lv - 1, True)] += count * (profile.q(lv) - 1)
        layer = nxt
    return total


@dataclass(frozen=True)
class VertexGroup:
    """The semidirect product H0 x| (U_1 x ... x U_i) with its embeddings.

    Elements are mixed-radix encodings of (h, u_1, ..., u_i): the local h0
    position is the least significant digit.
    """

    group: A.FiniteGroup
    h0_embed: dict[int, int]
    root_embeds: tuple[tuple[int, ...], ...]

    def embed_root(self, j: int, u: int) -> int:
        return self.root_embeds[j - 1][u]


def gamma_i(d, i: int) -> VertexGroup:
    """Full multiplication table of the level-i vertex group.

    The product convention matches h*u notation:
    (h, u) (h', u') = (h h', theta_{h'^-1}(u) u') componentwise.
    """
    h_members = d.h0.members
    nh = len(h_members)
    h_pos = {h: p for p, h in enumerate(h_members)}
    roots = [d.root(j) for j in range(1, i + 1)]
    radices = [nh] + [r.q for r in roots]
    order = 1
    for r in radices:
        order *= r

    def decode(x: int) -> list[int]:
        digits = []
        for r in radices:
            digits.append(x % r)
            x //= r
        return digits

    def encode(digits: list[int]) -> int:
        x = 0
        for r, digit in zip(reversed(radices), reversed(digits)):
            x = x * r + digit
        return x

    g0 = d.gamma0
    all_digits = [decode(x) for x in range(order)]
    table_rows = []
    for a in range(order):
        da = all_digits[a]
        ha = h_members[da[0]]
        row = []
        for b in range(order):
            db = all_digits[b]
            hb = h_members[db[0]]
            hb_inv = g0.inv(hb)
            digits = [h_pos[g0.mul(ha, hb)]]
            for j, rd in enumerate(roots, start=1):
                twisted = rd.action.rows[hb_inv][da[j]]
                digits.append(rd.group.mul(twisted, db[j]))
            row.append(encode(digits))
        table_rows.append(tuple(row))
    ident = encode([h_pos[g0.identity]] + [rd.group.identity for rd in roots])
    group = A.trusted_group(tuple(table_rows), ident,
                                  name=f"Gamma_{i}({d.name or 'custom'})")

    h0_embed = {}
    for h in h_members:
        digits = [h_pos[h]] + [rd.group.identity for rd in roots]
        h0_embed[h] = encode(digits)
    root_embeds = []
    for j, rd in enumerate(roots, start=1):
        col = []
        for u in range(rd.q):
            digits = [h_pos[g0.identity]] + [r.group.identity for r in roots]
            digits[j] = u
            col.append(encode(digits))
        root_embeds.append(tuple(col))
    return VertexGroup(group=group, h0_embed=h0_embed,
                       root_embeds=tuple(root_embeds))


def perm_group_closure(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Brute-force closure of permutation generators under composition."""
    n = len(gens[0])
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[x]] for x in range(n))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return sorted(elems)


def perm_table(elems: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(elems)}
    return [
        [index[tuple(p[q[x]] for x in range(len(p)))] for q in elems]
        for p in elems
    ]


def brute_cosets(order: int, table, members) -> list[frozenset]:
    """Left cosets of a subgroup by scanning all elements."""
    seen = set()
    cosets = []
    for g in range(order):
        cs = frozenset(table[g][h] for h in members)
        if cs not in seen:
            seen.add(cs)
            cosets.append(cs)
    return cosets


def geodesic_levels(t, a, b) -> list[int]:
    return [v[2] for v in T.geodesic(t, a, b)]


def horoball_oracle(t, x) -> set:
    """Geodesic characterization: y is in the horoball of x iff the tree
    path from x to y never dips below the level of x."""
    lv = x[2]
    out = set()
    for vid in range(t.n):
        y = t.verts[vid]
        if y[2] < lv:
            continue
        if min(geodesic_levels(t, x, y)) >= lv:
            out.add(y)
    return out


def flood_oracle(t, start: int, keep) -> list[int]:
    """Sorted ids of the in-ball component of `start` among the ids that
    satisfy `keep`, by a stack walk over `t.adj`."""
    seen = {start}
    stack = [start]
    while stack:
        for u in t.adj[stack.pop()]:
            if u not in seen and keep(u):
                seen.add(u)
                stack.append(u)
    return sorted(seen)


def bfs_component_geodesic(g, a, b) -> list:
    """Shortest node path from a to b in a component graph, by breadth-first
    search over its edge lists alone (no tree paths)."""
    if a == b:
        return [a]
    prev = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for x in queue:
            for y in g.edges[x]:
                if y not in prev:
                    prev[y] = x
                    if y == b:
                        path = [y]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(y)
        queue = nxt
    raise ValueError(f"no path between {a} and {b}")


def all_level_matchings(d, c, c2, level_bound=None):
    """All level-preserving bijections between the stars of c and c2,
    as dictionaries including the centers.  With a bound, only neighbors
    at or below it take part (stars inside a bounded-level component)."""
    if c[2] != c2[2]:
        return

    def star(center):
        out = [u for u in T.neighbors(d, center)
               if level_bound is None or u[2] <= level_bound]
        return sorted(out, key=T.address_key)

    n1 = star(c)
    n2 = star(c2)
    by_level = {}
    for u in n2:
        by_level.setdefault(u[2], []).append(u)
    groups = {}
    for u in n1:
        groups.setdefault(u[2], []).append(u)
    if sorted(groups) != sorted(by_level):
        return
    pools = []
    for lv in sorted(groups):
        if len(groups[lv]) != len(by_level[lv]):
            return
        pools.append([list(zip(groups[lv], perm))
                      for perm in itertools.permutations(by_level[lv])])
    for combo in itertools.product(*pools):
        pairs = {c: c2}
        for block in combo:
            pairs.update(dict(block))
        yield pairs


# -- word-kernel oracles ---------------------------------------------------------

def payload_mul_oracle(d, a, b):
    """Componentwise product of two payloads by a full merge."""
    out = []
    ia, ib = 0, 0
    la, lb = len(a), len(b)
    while ia < la and ib < lb:
        ja, ua = a[ia]
        jb, ub = b[ib]
        if ja < jb:
            out.append(a[ia])
            ia += 1
        elif jb < ja:
            out.append(b[ib])
            ib += 1
        else:
            grp = d.root(ja).group
            u = grp.mul(ua, ub)
            if u != grp.identity:
                out.append((ja, u))
            ia += 1
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def payload_inv_oracle(d, a):
    return tuple((j, d.root(j).group.inv(u)) for j, u in a)


def delta_mul_oracle(d, a, b):
    """Product in Delta, reducing against every syllable of b in turn."""
    if not a:
        return b
    if not b:
        return a
    out = list(a)
    for syl in b:
        if out and out[-1][0] == syl[0]:
            pay = payload_mul_oracle(d, out[-1][1], syl[1])
            if pay:
                out[-1] = (syl[0], pay)
            else:
                out.pop()
        else:
            out.append(syl)
    return tuple(out)


def gamma0_conj_oracle(d, g0, w):
    """g0 * w * g0^-1 syllable by syllable, finding each (s', h) with
    g0 * gamma_s = gamma_{s'} * h by a scan over the cosets of H0."""
    g = d.gamma0
    out = []
    for s, pay in w:
        target = g.mul(g0, d.reps[s - 1])
        sp, h = next((sp, h) for sp in range(1, d.k + 1) for h in d.h0.members
                     if g.mul(d.reps[sp - 1], h) == target)
        out.append((sp, tuple((j, d.root(j).action.rows[h][u])
                              for j, u in pay)))
    return tuple(out)


def canon_coset_oracle(d, w, i, s):
    """Canonical coset word: filter the positions <= i out of the whole
    last payload when it sits at ray s."""
    if i == 0 or not w:
        return w
    s_last, pay = w[-1]
    if s_last != s:
        return w
    kept = tuple(x for x in pay if x[0] > i)
    if len(kept) == len(pay):
        return w
    if kept:
        return w[:-1] + ((s, kept),)
    return w[:-1]


# -- test-only horo views ----------------------------------------------------------

def level_increasing_ray(d, x, length: int) -> list:
    """The unique ray from x along which the level increases by 1 per step."""
    if x[2] == 0:
        raise LevelZeroBase(f"{x} has level 0: no level-increasing ray")
    out = [x]
    for _ in range(length):
        out.append(up_neighbor(d, out[-1]))
    return out


def horosphere(t, x) -> list:
    return [t.verts[vid] for vid in H.horoball(t, x).horosphere_ids()]


def component(t, x, i: int):
    """In-ball part of the component of x in the level-<=i forest."""
    if x[2] > i:
        raise LevelTooHigh(f"level {x[2]} exceeds the component bound {i}")
    return H.level_cut(t, i, False)[1][t.vid(x)]


@dataclass
class UniformPiece:
    """The in-ball part of Y_i (levels <= i reachable from the center),
    together with generators of the uniform lattice acting on it and the
    truncated fundamental domain (the k clipped rays)."""

    i: int
    vertex_ids: list
    generators: list
    fundamental_domain: list
    tree: T.TruncatedTree

    @property
    def vertices(self) -> list:
        return [self.tree.verts[vid] for vid in self.vertex_ids]

    def degree_in_piece(self, vid: int) -> int:
        member = set(self.vertex_ids)
        return sum(1 for u in self.tree.adj[vid] if u in member)


def uniform_piece(d, i: int, radius: int) -> UniformPiece:
    """Y_i intersected with the standard ball, plus Delta_i generators; the
    piece is the level-<=i component of the base vertex."""
    t = T.ball(d, T.base_vertex(), radius)
    ids = component(t, T.base_vertex(), i).vertex_ids
    gens = [W.generator(s, j, u)
            for s in range(1, d.k + 1)
            for j in range(1, i + 1)
            for u in range(d.root(j).group.order)
            if u != d.root(j).group.identity]
    fd = [T.base_vertex()] + [
        (W.EMPTY, s, lev)
        for s in range(1, d.k + 1)
        for lev in range(1, min(i, radius) + 1)
    ]
    fd = [v for v in fd if v in t]
    return UniformPiece(i=i, vertex_ids=ids, generators=gens,
                        fundamental_domain=fd, tree=t)


# -- extension helpers ---------------------------------------------------------------

def greedy_match_oracle(t, pairs, partner_class, level_bound=None) -> dict:
    """The greedy matcher with matched vertices processed in canonical
    address order, from a heap: each unmatched neighbor of a matched vertex
    v takes the first unused neighbor of v's image with the same partner
    class.  Returns the matched pairs."""
    d = t.datum
    match = dict(pairs)
    used = set(match.values())
    for v in match:
        if v not in t:
            raise CannotExtendInTruncation(f"domain vertex {v} outside the ball")

    def wanted(v):
        if level_bound is not None and v[2] > level_bound:
            return False
        return v in t

    heap = [(T.address_key(v), v) for v in match if wanted(v)]
    heapq.heapify(heap)
    queued = {v for _, v in heap}
    while heap:
        _, v = heapq.heappop(heap)
        img = match[v]
        v_nbrs = [u for u in T.neighbors(d, v)
                  if level_bound is None or u[2] <= level_bound]
        img_nbrs = [u for u in T.neighbors(d, img)
                    if level_bound is None or u[2] <= level_bound]
        by_class = {}
        for u in img_nbrs:
            if u not in used:
                by_class.setdefault(partner_class(u), []).append(u)
        for us in by_class.values():
            us.sort(key=T.address_key)
        for u in sorted((u for u in v_nbrs if u not in match),
                        key=T.address_key):
            partners = by_class.get(partner_class(u))
            if not partners:
                raise CannotExtendInTruncation(
                    f"no partner for {u} at frontier of {v}")
            w = partners.pop(0)
            match[u] = w
            used.add(w)
            if wanted(u) and u not in queued:
                heapq.heappush(heap, (T.address_key(u), u))
                queued.add(u)
    return match


def check_li_oracle(t, h, i, record_instances=False):
    """`check_Li` with condition (a) in its per-base-point form, which
    rebuilds gamma_{x,h(x)} on the horoball for every base point x in view.
    Condition (b) is the library's, kept when condition (a) passes."""
    d = t.datum
    cert = E.check_Li(t, h, i, record_instances)
    if not cert.level_preserving:
        return cert
    ca = E.ConditionStats(cap=10)
    for hb in H.horoballs(t, i):
        for x_vid in hb.horosphere_ids():
            x = t.verts[x_vid]
            y = h.apply(x)
            if y is None:
                ca.skipped += 1
                continue
            record = {"x": str(x), "h(x)": str(y)} if record_instances else None
            if ca.add(*E._compare(TR.gamma_xy_on_horoball(d, hb, x_vid, y),
                                  h.apply, ("x", "u", "h(u)", "gamma(u)"),
                                  (x,)), record):
                return dataclasses.replace(cert, condition_a=ca,
                                           condition_b=E.ConditionStats(cap=10))
    return dataclasses.replace(cert, condition_a=ca)


def count_calls(monkeypatch, *targets) -> dict:
    """Patch each (module, name) target to count its calls; returns the
    live name -> count dict."""
    calls = {}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        calls[name] = 0
        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        counted(module, name)
    return calls


def tabulated_map(t, g):
    """The map of the group element g with its explicit graph over the
    whole ball, which a test may then damage."""
    d = t.datum
    return E.TreeMap(d, {v: T.act(d, g, v) for v in t.verts}, backing=g)


def identity_star(d):
    """The identity on the base vertex and its star."""
    x0 = T.base_vertex()
    return E.TreeMap(d, {v: v for v in [x0] + T.neighbors(d, x0)})


def swap_map(d):
    """x_1 fixed, x_0 and u x_0 swapped, for the generator u of the first
    root group on ray 1: a nontrivial map on the star of x_1."""
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d, W.generator(1, 1, 1), x0)
    return E.TreeMap(d, {x1: x1, x0: u_x0, u_x0: x0})


def rotating_star(d):
    """The map fixing the base vertex and sending x_{1,s} to x_{1,s+1}
    (mod k): every horoball it moves changes ray."""
    x0 = T.base_vertex()
    star = T.neighbors(d, x0)
    pairs = {x0: x0}
    for n, v in enumerate(star):
        pairs[v] = star[(n + 1) % len(star)]
    return E.TreeMap(d, pairs)


def reverse_component_graphs(monkeypatch, t, i) -> None:
    """Patch `horo.component_graph` to list every node's neighbors in
    reverse order, after checking that this changes the order in which a
    breadth-first walk from the base component of t at level i visits the
    components (so a walk-order check is not vacuous)."""
    original = H.component_graph

    def reversed_graph(t, i):
        g = original(t, i)
        return dataclasses.replace(
            g, edges={k: v[::-1] for k, v in g.edges.items()})

    source = [original(t, i).key_of(T.base_vertex())]
    walks = [list(T.bfs_depths(source, g.edges.__getitem__))
             for g in (original(t, i), reversed_graph(t, i))]
    assert walks[0] != walks[1]
    monkeypatch.setattr(H, "component_graph", reversed_graph)
