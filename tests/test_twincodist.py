import random

from nagaotree import tree as T
from nagaotree import twincodist as TC
from nagaotree import words as W


def test_synthesized_values(d0, ball_d0_6):
    table = TC.synthesize_codistance(ball_d0_6)
    assert table.values[T.base_vertex()] == 0
    assert table.values[T.ray_vertex(3)] == 3
    for vid in range(ball_d0_6.n):
        v = ball_d0_6.verts[vid]
        if v[2] == 0:
            assert table.values[v] == 0


def test_verify_codist_passes(d0, ball_d0_6):
    table = TC.synthesize_codistance(ball_d0_6)
    rep = TC.verify_codist(table, ball_d0_6)
    assert rep.passed
    assert rep.checked == len(ball_d0_6.interior_ids())


def test_verify_codist_fault_injection(d0, ball_d0_6):
    table = TC.synthesize_codistance(ball_d0_6)
    x2 = T.ray_vertex(2)
    table.values[x2] = table.values[x2] + 2
    rep = TC.verify_codist(table, ball_d0_6)
    assert not rep.passed
    bad_vertices = {f["x"] for f in rep.failures}
    assert str(x2) in bad_vertices or any(
        str(T.ray_vertex(1)) == x or str(T.ray_vertex(3)) == x
        for x in bad_vertices)


def test_opposite_vertices_ascend_everywhere(d0, ball_d0_6):
    # at codistance zero every neighbor sits at codistance one
    table = TC.synthesize_codistance(ball_d0_6)
    for vid in ball_d0_6.interior_ids():
        v = ball_d0_6.verts[vid]
        if table.values[v] == 0:
            assert len(ball_d0_6.adj[vid]) == d0.k
            for uid in ball_d0_6.adj[vid]:
                assert table.values[ball_d0_6.verts[uid]] == 1


def test_infinite_star_counts(d0):
    t = T.ball(d0, T.base_vertex(), 3)
    star = TC.infinite_star(t)
    assert len(star) == 1 + 3 * 3
    # rays meet only at the base vertex
    tags = [(v[1], v[2]) for v in star if v[2] > 0]
    assert len(set(tags)) == len(tags)


def test_star_is_fundamental_domain(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    star = set(TC.infinite_star(t))
    # every ball vertex is the translate of exactly one star vertex by the
    # word of its address
    for vid in range(t.n):
        w, s, i = t.verts[vid]
        origin = (W.EMPTY, s, i) if i > 0 else T.base_vertex()
        assert origin in star
        assert T.act_word(d0, w, origin) == t.verts[vid]
    # and distinct star vertices are never translates of each other
    for a in star:
        for b in star:
            if a != b and a[2] == b[2]:
                # same level, different ray position: no word moves a to b
                got = T.act_word(d0, W.delta_mul(
                    d0, b[0], W.delta_inv(d0, a[0])), a)
                assert got != b or a[1] == b[1]


def test_vertex_types(d0, ball_d0_6):
    assert TC.vertex_type(T.base_vertex()) == 0
    assert TC.vertex_type(T.ray_vertex(1)) == 1
    for vid in range(ball_d0_6.n):
        for uid in ball_d0_6.adj[vid]:
            assert TC.vertex_type(ball_d0_6.verts[vid]) != \
                TC.vertex_type(ball_d0_6.verts[uid])


def test_types_preserved_by_action(d1):
    t = T.ball(d1, T.base_vertex(), 4)
    rng = random.Random(7)
    pool = W.enumerate_words(d1, 2, [1, 2])
    for _ in range(40):
        g = (rng.randrange(d1.gamma0.order), pool[rng.randrange(len(pool))])
        vid = rng.randrange(t.n)
        v = t.verts[vid]
        assert TC.vertex_type(T.act(d1, g, v)) == TC.vertex_type(v)


def test_codistance_table_json(d0):
    t = T.ball(d0, T.base_vertex(), 2)
    table = TC.synthesize_codistance(t)
    obj = table.to_json()
    assert len(obj["values"]) == t.n
    assert all(isinstance(m, int) for _, m in obj["values"])
