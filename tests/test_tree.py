import dataclasses
import random

import pytest

from conftest import ball_size_oracle, gamma_identity, uniform_piece
from nagaotree import algebra as A
from nagaotree import datum as D
from nagaotree import tree as T
from nagaotree import words as W
from nagaotree.errors import NonCanonicalAddress, NotInTruncation


def test_neighbors_of_base(d0):
    nbrs = T.neighbors(d0, T.base_vertex())
    assert len(nbrs) == 3
    assert all(v[2] == 1 for v in nbrs)
    assert sorted(v[1] for v in nbrs) == [1, 2, 3]


def test_neighbors_of_ray_vertex(d0):
    x1 = T.ray_vertex(1)
    nbrs = T.neighbors(d0, x1)
    up = [v for v in nbrs if v[2] == 2]
    down = [v for v in nbrs if v[2] == 0]
    assert len(up) == 1 and up[0] == T.ray_vertex(2)
    assert len(down) == 2 and T.base_vertex() in down


def test_degree_seven_at_level_three(d2):
    t = T.ball(d2, T.base_vertex(), 4)
    x3 = T.ray_vertex(3)
    assert len(T.neighbors(d2, x3)) == 7
    assert t.degree(t.vid(x3)) == 7


def test_non_canonical_address_rejected(d0):
    with pytest.raises(NonCanonicalAddress):
        # the word generator (1,1) lies in the stabilizer of x_{1,1}
        T.neighbors(d0, (W.generator(1, 1, 1), 1, 1))
    with pytest.raises(NonCanonicalAddress):
        T.neighbors(d0, (W.EMPTY, 1, 0))  # level 0 must carry s = 0
    with pytest.raises(NonCanonicalAddress):
        T.neighbors(d0, (W.EMPTY, 9, 1))  # ray out of range


def test_ball_size_frozen_values(d0, d3):
    assert T.ball(d0, T.base_vertex(), 0).n == 1
    assert T.ball(d0, T.base_vertex(), 2).n == 10
    assert T.ball(d3, T.base_vertex(), 3).n == 25


@pytest.mark.parametrize("name,radius", [
    ("D0", 6), ("D1", 6), ("D3", 6), ("D2", 3),
])
def test_ball_size_matches_degree_recursion(name, radius):
    d = D.builtin(name)
    t = T.ball(d, T.base_vertex(), radius)
    assert t.n == ball_size_oracle(d.profile, radius)


def test_ball_adjacency_is_symmetric_and_acyclic(d3):
    t = T.ball(d3, T.base_vertex(), 4)
    edges = sum(len(a) for a in t.adj) // 2
    assert edges == t.n - 1  # a tree
    for vid in range(t.n):
        for uid in t.adj[vid]:
            assert vid in t.adj[uid]
            assert abs(t.level(vid) - t.level(uid)) == 1


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3"])
def test_edge_rows_in_order_without_sort(name):
    t = T.ball(D.builtin(name), T.base_vertex(), 5)
    # adj[a]: the BFS parent first, then the children in increasing id
    for a in range(t.n):
        kids = t.adj[a] if a == 0 else t.adj[a][1:]
        assert a == 0 or t.dist[t.adj[a][0]] == t.dist[a] - 1
        assert kids == sorted(kids) and all(b > a for b in kids)
    rows = t.to_json()["edges"]
    pairs = sorted([a, b] for a in range(t.n) for b in t.adj[a] if a < b)
    assert len(rows) == len(pairs) == t.n - 1
    assert list(rows) == pairs


def test_act_identity(d0):
    v = (W.generator(2, 3, 1), 2, 2)
    T.validate_address(d0, v)
    assert T.act(d0, gamma_identity(d0), v) == v


def test_level_zero_orbit_is_simply_transitive(d0, ball_d0_6):
    # words of bounded length hit pairwise distinct level-0 vertices, and
    # the address of the image is the word itself
    seen = {}
    for w in W.enumerate_words(d0, 3, [1, 2]):
        v = T.act_word(d0, w, T.base_vertex())
        assert v == (w, 0, 0)
        assert v not in seen
        seen[v] = w
    # conversely, every in-ball level-0 vertex is one such image
    for vid in range(ball_d0_6.n):
        v = ball_d0_6.verts[vid]
        if v[2] == 0:
            assert T.act_word(d0, v[0], T.base_vertex()) == v


def test_h0_fixes_standard_ray(d1):
    for h in d1.h0.members:
        g = (h, W.EMPTY)
        for i in range(6):
            assert T.act(d1, g, T.ray_vertex(i)) == T.ray_vertex(i)


def test_action_fidelity_sampled(d1):
    rng = random.Random(3)
    t = T.ball(d1, T.base_vertex(), 5)
    pool = W.enumerate_words(d1, 2, [1, 2])
    gs = [(rng.randrange(d1.gamma0.order), pool[rng.randrange(len(pool))])
          for _ in range(200)]
    for g in gs:
        # adjacency and level preserved
        for vid in list(range(t.n))[::7]:
            v = t.verts[vid]
            iv = T.act(d1, g, v)
            assert iv[2] == v[2]
            img_nbrs = set(T.neighbors(d1, iv))
            for uid in t.adj[vid]:
                assert T.act(d1, g, t.verts[uid]) in img_nbrs
    for _ in range(60):
        g, h = rng.sample(gs, 2)
        v = t.verts[rng.randrange(t.n)]
        assert T.act(d1, W.gamma_mul(d1, g, h), v) == T.act(d1, g, T.act(d1, h, v))


def test_distance_and_geodesic(d0, ball_d0_6):
    t = ball_d0_6
    x0 = T.base_vertex()
    assert T.distance(t, x0, x0) == 0
    assert T.distance(t, x0, T.ray_vertex(3)) == 3
    assert [v[2] for v in T.geodesic(t, x0, T.ray_vertex(3))] == [0, 1, 2, 3]
    # u.x0 for u a level-2 root element: u fixes x2, so the geodesic is the
    # u-translate of x0-x1-x2 and the distance is 2; u.x1 is one of the
    # q_2 = 2 down-neighbors of x2 (the set acted on simply transitively)
    u_x0 = T.act_word(d0, W.generator(1, 2, 1), x0)
    assert T.distance(t, u_x0, T.ray_vertex(2)) == 2
    u_x1 = T.act_word(d0, W.generator(1, 2, 1), T.ray_vertex(1))
    assert T.distance(t, u_x1, T.ray_vertex(2)) == 1
    m22 = {t.verts[vid] for vid in range(t.n)
           if t.level(vid) == 1
           and T.distance(t, t.verts[vid], T.ray_vertex(2)) == 1}
    assert m22 == {T.ray_vertex(1), u_x1}
    with pytest.raises(NotInTruncation):
        T.distance(t, x0, (W.EMPTY, 1, 9))


@pytest.mark.parametrize("name,radius", [("D0", 5), ("D1", 5), ("D2", 3),
                                         ("D3", 5)])
def test_geodesic_ids_are_ball_paths(name, radius):
    t = T.ball(D.builtin(name), T.base_vertex(), radius)
    rng = random.Random(radius)
    for _ in range(25):
        a, b = rng.randrange(t.n), rng.randrange(t.n)
        path = T.geodesic_ids(t, a, b)
        assert path[0] == a and path[-1] == b
        assert all(v in t.adj[u] for u, v in zip(path, path[1:]))
        assert len(path) - 1 == T.bfs_depths([a], t.adj.__getitem__)[b]


def test_bfs_depths_match_ball_distances(ball_d0_6):
    t = ball_d0_6
    depth = T.bfs_depths([0], t.adj.__getitem__)
    assert list(depth) == list(range(t.n))  # discovery order is BFS order
    assert [depth[vid] for vid in range(t.n)] == t.dist
    near = T.bfs_depths([0], t.adj.__getitem__, max_depth=2)
    assert set(near) == {vid for vid in range(t.n) if t.dist[vid] <= 2}
    # several sources: the distance to the nearest one
    x3 = t.vid(T.ray_vertex(3))
    both = T.bfs_depths([0, x3], t.adj.__getitem__)
    assert both[t.vid(T.ray_vertex(2))] == 1
    assert both[x3] == 0 and both[0] == 0


def test_level_decrease_along_geodesics(d0, ball_d0_6):
    # a geodesic that starts by descending satisfies l(y_j) = l(y_0) - j
    # for all j <= l(y_0) it reaches
    t = ball_d0_6
    checked = 0
    for vid in range(0, t.n, 3):
        for uid in range(0, t.n, 5):
            path = T.geodesic(t, t.verts[vid], t.verts[uid])
            levels = [v[2] for v in path]
            if len(levels) >= 2 and levels[1] == levels[0] - 1:
                checked += 1
                for j in range(min(levels[0], len(levels) - 1) + 1):
                    assert levels[j] == levels[0] - j
    assert checked > 50


def test_every_vertex_is_unique_translate_of_star(d0, ball_d0_6):
    # the address decomposition is the fundamental-domain statement
    t = ball_d0_6
    for vid in range(t.n):
        w, s, i = t.verts[vid]
        base = T.ray_vertex(i, s) if i > 0 else T.base_vertex()
        assert T.act_word(d0, w, base) == t.verts[vid]
    # uniqueness: two translates collide exactly when they share the ray
    # position and the canonical coset representative
    seen = {}
    for w in W.enumerate_words(d0, 2, [1, 2]):
        for i in range(0, 3):
            for s in range(1, 4) if i else [0]:
                base = T.ray_vertex(i, s) if i else T.base_vertex()
                v = T.act_word(d0, w, base)
                tag = (i, s, W.canon_coset(d0, w, i, s))
                if v in seen:
                    assert seen[v] == tag
                seen[v] = tag


def test_uniform_piece_d0(d0):
    up = uniform_piece(d0, 1, 4)
    t = up.tree
    levels = {t.level(vid) for vid in up.vertex_ids}
    assert levels == {0, 1}
    # interior level-1 vertices have degree q_1 = 2 inside the piece
    for vid in up.vertex_ids:
        if t.level(vid) == 1 and t.is_interior(vid):
            assert up.degree_in_piece(vid) == 2
    # generators: (s, j<=1, u) syllables
    assert len(up.generators) == 3
    # fundamental domain: clipped rays
    assert T.base_vertex() in up.fundamental_domain
    assert len(up.fundamental_domain) == 4


def test_uniform_piece_orbit_covers_level_zero(d0):
    up = uniform_piece(d0, 1, 4)
    t = up.tree
    piece = {t.verts[v] for v in up.vertex_ids}
    targets = {v for v in piece if v[2] == 0}
    # BFS over the generator action inside the ball
    seen = {T.base_vertex()}
    frontier = [T.base_vertex()]
    while frontier:
        nxt = []
        for v in frontier:
            for g in up.generators:
                u = T.act_word(d0, g, v)
                if u in piece and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    assert targets <= seen


def test_uniform_piece_d3_degree_multisets(d3):
    up = uniform_piece(d3, 2, 4)
    t = up.tree
    by_level = {}
    for vid in up.vertex_ids:
        if t.is_interior(vid):
            by_level.setdefault(t.level(vid), set()).add(up.degree_in_piece(vid))
    # degrees inside Y_2: level 0 keeps k = 3, level 1 keeps q_1 + 1 = 3,
    # level 2 drops its up-neighbor: q_2 = 3
    assert by_level[0] == {3}
    assert by_level[1] == {3}
    assert by_level[2] == {3}
    # same-type levels 0 and 2 are told apart by the full tree, not Y_2:
    # in the ball itself level-2 vertices have degree 4
    full = T.ball(d3, T.base_vertex(), 4)
    lvl2 = [vid for vid in full.interior_ids() if full.level(vid) == 2]
    assert {full.degree(vid) for vid in lvl2} == {4}


def test_biregularity_dichotomy():
    assert D.builtin("D0").profile.biregular
    assert D.builtin("D1").profile.biregular
    assert D.builtin("D2").profile.biregular
    assert not D.builtin("D3").profile.biregular


def _check_recovery(t, count, ambiguous=False):
    """Pinned determined count; every determined level is the true level."""
    rec = T.level_from_degrees(t)
    assert rec.ambiguous is ambiguous
    assert len(rec.levels) == count
    assert all(lv == v[2] for v, lv in rec.levels.items())
    return rec


@pytest.mark.parametrize("radius,count", [
    (2, 4), (3, 16), (4, 16), (5, 85), (6, 85), (7, 388), (8, 388),
    (9, 1963), (10, 1963),
])
def test_level_reconstruction_d3(d3, radius, count):
    t = T.ball(d3, T.base_vertex(), radius)
    rec = _check_recovery(t, count)
    # every vertex within (r+1)//2 is determined; for r <= 7 that includes
    # the r-3 core criterion 10 asks for, beyond r = 7 it does not
    assert all(t.verts[vid] in rec.levels
               for vid in range(t.n) if t.dist[vid] <= (radius + 1) // 2)


@pytest.mark.parametrize("center,counts", [
    (T.ray_vertex(1), (8, 39, 39)),
    (T.ray_vertex(2), (23, 23, 94)),
    (T.ray_vertex(3, 2), (0, 46, 46)),
])
def test_level_recovery_d3_off_base(d3, center, counts):
    for radius, count in zip((3, 4, 5), counts):
        _check_recovery(T.ball(d3, center, radius), count, ambiguous=not count)


def _prefix_datum():
    """Gamma0 = C3, trivial H0, root groups C3 then C2 forever."""
    g0 = A.cyclic_group(3)
    h0 = A.trivial_subgroup(g0)

    def root(n):
        grp = A.cyclic_group(n)
        return D.RootData(group=grp, action=A.trivial_action(h0, grp))

    return D.NagaoDatum(g0, h0, (root(3),), (root(2),), name="prefix")


def test_level_recovery_prefix_schedule():
    d = _prefix_datum()
    assert not d.profile.biregular
    for radius, count in zip((2, 3, 4, 5), (4, 4, 40, 58)):
        _check_recovery(T.ball(d, T.base_vertex(), radius), count)


def test_level_recovery_refuses_inconsistent_degrees(d3):
    # a D3 ball read against another degree schedule has no labelling
    t = dataclasses.replace(T.ball(d3, T.base_vertex(), 3), datum=_prefix_datum())
    with pytest.raises(NotInTruncation, match="admits no level labelling"):
        T.level_from_degrees(t)


def test_level_reconstruction_ambiguous_for_biregular(d0):
    t = T.ball(d0, T.base_vertex(), 4)
    rec = T.level_from_degrees(t)
    assert rec.ambiguous and not rec.levels


def test_ball_around_noncentral_vertex(d0):
    # the ball around x_2 agrees with the distance filter in a larger ball
    big = T.ball(d0, T.base_vertex(), 6)
    x2 = T.ray_vertex(2)
    small = T.ball(d0, x2, 3)
    expect = {big.verts[vid] for vid in range(big.n)
              if x2 in big and T.distance(big, big.verts[vid], x2) <= 3
              and big.dist[vid] + 0 <= 6}
    # restrict to vertices whose distance to x_2 is fully visible
    expect = {v for v in expect if T.distance(big, v, x2) <= 3}
    got = set(small.verts)
    # the small ball may legitimately contain vertices outside the big one
    assert expect <= got
    for vid in small.interior_ids():
        lv = small.level(vid)
        assert small.degree(vid) == d0.profile.degree(lv)
