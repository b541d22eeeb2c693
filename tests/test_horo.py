import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import (bfs_component_geodesic, component, flood_oracle,
                      horoball_oracle, horosphere, level_increasing_ray,
                      uniform_piece)
from nagaotree import datum as D
from nagaotree import horo as H
from nagaotree import tree as T
from nagaotree import words as W
from nagaotree.errors import LevelTooHigh, LevelZeroBase, NotInGraph


def test_level_increasing_ray(d0):
    ray = level_increasing_ray(d0, T.ray_vertex(1), 3)
    assert ray == [T.ray_vertex(i) for i in (1, 2, 3, 4)]
    u_x1 = T.act_word(d0, W.generator(1, 1, 1), T.ray_vertex(1))
    ray2 = level_increasing_ray(d0, u_x1, 2)
    assert [v[2] for v in ray2] == [1, 2, 3]
    assert ray2[0] == u_x1
    # each step is indeed a neighbor
    for a, b in zip(ray2, ray2[1:]):
        assert b in T.neighbors(d0, a)
    with pytest.raises(LevelZeroBase):
        level_increasing_ray(d0, T.base_vertex(), 1)


def test_level_zero_horoballs_refused(d0):
    # the ball's center is at level 2, so a message naming it as the
    # level-0 vertex would be wrong
    t = T.ball(d0, T.ray_vertex(2), 3)
    with pytest.raises(LevelZeroBase, match="level 0") as exc:
        H.horoballs(t, 0)
    assert str(t.center) not in str(exc.value)
    with pytest.raises(LevelZeroBase):
        H.horoball(t, T.base_vertex())


def test_horosphere_is_orbit_of_high_syllables(d0):
    # the level-1 standard horosphere is the orbit of x_1 under words
    # supported strictly above level 1 at ray 1, and the action is free
    t = T.ball(d0, T.base_vertex(), 5)
    hs = set(horosphere(t, T.ray_vertex(1)))
    orbit = []
    for pay in W.enumerate_payloads(d0, [2, 3, 4, 5, 6]):
        v = T.act_word(d0, W.syllable_word(1, pay), T.ray_vertex(1))
        orbit.append(v)
    assert len(set(orbit)) == len(orbit)
    assert hs == {v for v in orbit if v in t}


def test_horoball_fixed_pointwise_by_root_group(d0):
    t = T.ball(d0, T.base_vertex(), 6)
    hb = H.horoball(t, T.ray_vertex(2))
    g = (d0.ident0, W.generator(1, 2, 1))
    for vid in hb.vertex_ids:
        assert T.act(d0, g, t.verts[vid]) == t.verts[vid]


def test_sibling_horoballs_are_disjoint(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    x1 = T.ray_vertex(1)
    x1b = T.ray_vertex(1, 2)
    a = set(H.horoball(t, x1).vertex_ids)
    b = set(H.horoball(t, x1b).vertex_ids)
    assert not a & b


def test_horoball_matches_geodesic_oracle(d3):
    t = T.ball(d3, T.base_vertex(), 5)
    for vid in range(t.n):
        x = t.verts[vid]
        if 1 <= x[2] <= 3:
            got = {t.verts[u] for u in H.horoball(t, x).vertex_ids}
            assert got == horoball_oracle(t, x)


def _check_membership(name, radius):
    # balls and horoballs are convex, so the flooded in-ball horosphere is
    # exactly the in-ball part of the symbolic one
    d = D.builtin(name)
    t = T.ball(d, T.base_vertex(), radius)
    lvl = [t.verts[v] for v in range(t.n) if t.level(v) in (1, 2)]
    for x in lvl:
        sphere = set(horosphere(t, x))
        for y in lvl:
            if y[2] == x[2]:
                assert H.in_same_horosphere(d, x, y) == (y in sphere), (x, y)


def test_horosphere_membership_symbolic_vs_extensional():
    _check_membership("D0", 5)


@pytest.mark.parametrize("name,radius", [("D1", 5), ("D3", 5), ("D2", 3)])
def test_horosphere_membership_symbolic_vs_extensional_other_data(name, radius):
    _check_membership(name, radius)


def test_horoballs_partition_each_level(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    for i in (1, 2, 3):
        hbs = H.horoballs(t, i)
        spheres = [hb.horosphere_ids() for hb in hbs]
        flat = [vid for s in spheres for vid in s]
        assert sorted(flat) == [v for v in range(t.n) if t.level(v) == i]
        assert [s[0] for s in spheres] == sorted(s[0] for s in spheres)
        assert all(hb is H.horoball(t, t.verts[s[0]])
                   for hb, s in zip(hbs, spheres))


def test_component_graph_cycle_raises_under_python_O():
    # the cycle check must survive `python -O`, which strips asserts; the
    # faulty tree is a copy of a ball in which the later of two level-1
    # vertices of adjacent components on a shared horosphere names the
    # earlier one as its BFS parent, joining the two components
    code = textwrap.dedent("""
        from nagaotree import datum as D, horo as H, tree as T
        from nagaotree.errors import NagaoError
        if __debug__:
            raise SystemExit("expected to run under python -O")
        d = D.builtin("D0")
        t = T.ball(d, T.base_vertex(), 4)
        g = H.component_graph(t, 1)
        a = g.node_keys()[0]
        xa, xb = g.witness(a, g.edges[a][0])
        ia, ib = sorted((t.vid(xa), t.vid(xb)))
        adj = [list(nbrs) for nbrs in t.adj]
        adj[ib][0] = ia
        bad = T.TruncatedTree(datum=d, center=t.center, radius=t.radius,
                              verts=t.verts, index=t.index, dist=t.dist,
                              adj=adj)
        try:
            H.component_graph(bad, 1)
        except NagaoError as exc:
            print(type(exc).__name__)
        if t.adj[ib][0] == ia:
            raise SystemExit("the cached ball was mutated")
    """)
    src = str(Path(H.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "NagaoError"


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3"])
def test_level_cut_pieces_are_floods(name, request):
    # the one pass over BFS parents finds the pieces a flood over the
    # adjacency finds, in order of least id, in balls about the base vertex
    # and about x_2
    d = request.getfixturevalue(name.lower())
    balls = [T.ball(d, T.base_vertex(), r) for r in range(6)]
    balls.append(T.ball(d, T.ray_vertex(2), 4))
    for t in balls:
        for i in (1, 2, 3):
            for above in (True, False):
                keep = ((lambda u: t.level(u) >= i) if above
                        else (lambda u: t.level(u) <= i))
                pieces, piece_of = H.level_cut(t, i, above)
                assert sorted(piece_of) == [v for v in range(t.n) if keep(v)]
                assert [p.vertex_ids[0] for p in pieces] == sorted(
                    p.vertex_ids[0] for p in pieces)
                for p in pieces:
                    assert p.vertex_ids == flood_oracle(t, p.vertex_ids[0],
                                                        keep)
                    assert all(piece_of[v] is p for v in p.vertex_ids)


def test_component_of_base_is_uniform_piece(d0):
    t = T.ball(d0, T.base_vertex(), 4)
    comp = component(t, T.base_vertex(), 1)
    up = uniform_piece(d0, 1, 4)
    assert comp.vertex_ids == up.vertex_ids
    assert comp.vertex_ids == flood_oracle(t, t.vid(T.base_vertex()),
                                           lambda u: t.level(u) <= 1)
    with pytest.raises(LevelTooHigh):
        component(t, T.ray_vertex(2), 1)


def test_component_graph_edges_match_shared_horospheres(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    g = H.component_graph(t, 1)
    # oracle: recompute edges by scanning level-1 pairs symbolically
    lvl1 = [t.verts[v] for v in range(t.n) if t.level(v) == 1]
    expect = set()
    for x, y in itertools.combinations(lvl1, 2):
        if H.in_same_horosphere(d0, x, y):
            kx = g.comp_of_vid[t.vid(x)]
            ky = g.comp_of_vid[t.vid(y)]
            # in-ball graph keeps the edge only when the horoball path is
            # visible; ignore pairs whose connection leaves the ball
            if (kx, ky) in g.edge_witness:
                expect.add(frozenset((kx, ky)))
    got = {frozenset((a, b)) for a in g.edges for b in g.edges[a]}
    assert expect <= got
    # every stored edge has a valid witness pair
    for (a, b), (x, y) in g.edge_witness.items():
        assert x[2] == g.i and y[2] == g.i
        assert H.in_same_horosphere(d0, x, y)
        assert g.comp_of_vid[t.vid(x)] == a
        assert g.comp_of_vid[t.vid(y)] == b


def test_component_graph_witness_unique(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    g = H.component_graph(t, 1)
    # the witness pair of an edge is the unique same-horosphere pair
    for (a, b), (x, y) in g.edge_witness.items():
        A = g.components[a]
        B = g.components[b]
        found = [
            (xx, yy)
            for xx in A.vertices() if xx[2] == 1
            for yy in B.vertices() if yy[2] == 1
            if H.in_same_horosphere(d0, xx, yy)
        ]
        assert found == [(x, y)]


@pytest.mark.parametrize("i", [1, 2])
def test_geodesics_unique_with_characterization(d0, ball_d0_6, i):
    # a path is the geodesic iff consecutive-but-one nodes are neither
    # equal nor adjacent; exhaustively there is exactly one such path
    t = ball_d0_6
    g = H.component_graph(t, i)
    keys = g.node_keys()

    def proper_paths(a, b, maxlen):
        stack = [[a]]
        while stack:
            path = stack.pop()
            if path[-1] == b and len(path) > 1:
                yield path
                continue
            if len(path) > maxlen:
                continue
            for nxt in g.edges[path[-1]]:
                if len(path) >= 2:
                    prev = path[-2]
                    if nxt == prev or nxt in g.edges[prev]:
                        continue
                stack.append(path + [nxt])

    import random
    pairs = [(a, b) for a in keys for b in keys if a != b]
    if len(pairs) <= 600:
        chosen = pairs  # exhaustive
    else:
        rng = random.Random(0)
        rng.shuffle(pairs)
        chosen = pairs[:60]
    for a, b in chosen:
        geo = g.geodesic(a, b)
        found = list(proper_paths(a, b, maxlen=len(geo) + 2))
        assert len(found) == 1 and found[0] == geo


@pytest.mark.parametrize("name,radius", [("D0", 6), ("D3", 6), ("D2", 3)])
@pytest.mark.parametrize("i", [1, 2])
def test_geodesic_read_off_the_ball_matches_bfs(name, radius, i):
    # the projected tree path is the geodesic a breadth-first search of the
    # component graph finds, on every ordered pair of nodes
    t = T.ball(D.builtin(name), T.base_vertex(), radius)
    g = H.component_graph(t, i)
    keys = g.node_keys()
    for a in keys:
        for b in keys:
            assert g.geodesic(a, b) == bfs_component_geodesic(g, a, b)
    with pytest.raises(NotInGraph):
        g.geodesic(keys[0], T.ray_vertex(i + 1))


def test_horoball_shared_by_its_horosphere(d3):
    # one piece per horoball: every horosphere vertex gets the same object,
    # and its vertices are the flood from any of them
    t = T.ball(d3, T.base_vertex(), 5)
    for vid in range(t.n):
        lv = t.level(vid)
        if lv == 0:
            continue
        hb = H.horoball(t, t.verts[vid])
        for y in hb.horosphere_ids():
            assert H.horoball(t, t.verts[y]) is hb
            assert hb.vertex_ids == flood_oracle(
                t, y, lambda u: t.level(u) >= lv)


def test_component_graph_nodes_keyed_by_min_address(d3):
    t = T.ball(d3, T.base_vertex(), 4)
    g = H.component_graph(t, 2)
    for key, comp in g.components.items():
        assert key == min(comp.vertices(), key=T.address_key)


def test_horosphere_membership_symbolic_d3(d3):
    t = T.ball(d3, T.base_vertex(), 5)
    lvl = [t.verts[v] for v in range(t.n) if t.level(v) in (1, 2)]
    for x in lvl[::3]:
        sphere = set(horosphere(t, x))
        for y in lvl:
            if y[2] == x[2] and y in sphere:
                assert H.in_same_horosphere(d3, x, y)


def test_coincident_translates_agree_on_horoball(d0):
    # two free-product elements with the same value at x agree on the whole
    # horoball of x
    t = T.ball(d0, T.base_vertex(), 6)
    x = T.ray_vertex(2)
    delta = W.delta_mul(d0, W.generator(2, 3, 1), W.generator(1, 1, 1))
    for pay in W.enumerate_payloads(d0, [1, 2]):
        sigma = W.syllable_word(1, pay)  # stabilizer of x_{2,1}
        delta2 = W.delta_mul(d0, delta, sigma)
        assert T.act_word(d0, delta2, x) == T.act_word(d0, delta, x)
        for vid in H.horoball(t, x).vertex_ids:
            v = t.verts[vid]
            assert T.act_word(d0, delta2, v) == T.act_word(d0, delta, v)
