import functools
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gamma_identity, tabulated_map, twisted_datum
from nagaotree import algebra as A
from nagaotree import datum as D
from nagaotree import extension as E
from nagaotree import horo as H
from nagaotree import serialize as S
from nagaotree import transport as TR
from nagaotree import tree as T
from nagaotree import words as W
from nagaotree.errors import LevelMismatch, NotSameHorosphere


def test_delta_xy_trivial(d0):
    x = T.ray_vertex(2)
    assert TR.delta_xy(d0, x, x) == W.EMPTY


def test_delta_xy_is_the_unique_high_transporter(d0):
    # for x1 and u.x1 (u at level 2), the transporter is the u-syllable,
    # and brute force over all high-supported words finds exactly one
    x1 = T.ray_vertex(1)
    y = T.act_word(d0, W.generator(1, 2, 1), x1)
    dl = TR.delta_xy(d0, x1, y)
    assert dl == W.generator(1, 2, 1)
    hits = []
    for pay in W.enumerate_payloads(d0, [2, 3, 4, 5, 6, 7]):
        if T.act_word(d0, W.syllable_word(1, pay), x1) == y:
            hits.append(pay)
    assert len(hits) == 1 and W.syllable_word(1, hits[0]) == dl


def test_delta_xy_requires_same_horosphere(d0):
    with pytest.raises(NotSameHorosphere):
        TR.delta_xy(d0, T.ray_vertex(1), T.ray_vertex(2))
    with pytest.raises(NotSameHorosphere):
        TR.delta_xy(d0, T.ray_vertex(1), T.ray_vertex(1, 2))


def test_delta_inverse_rule_sampled(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    rng = random.Random(1)
    lvl = [t.verts[v] for v in range(t.n) if t.level(v) in (1, 2)]
    pairs = [(x, y) for x in lvl for y in lvl
             if x[2] == y[2] and H.in_same_horosphere(d0, x, y)]
    for _ in range(50):
        x, y = pairs[rng.randrange(len(pairs))]
        assert TR.delta_xy(d0, y, x) == W.delta_inv(d0, TR.delta_xy(d0, x, y))


def test_delta_xy_well_defined_under_translate_choice(d0):
    # every translate carrying x into the standard rays is sigma * w^-1 for
    # a stabilizer element sigma; all of them give the same transporter
    x = T.act_word(d0, W.generator(2, 1, 1), T.ray_vertex(2))
    y = T.act_word(d0, W.delta_mul(d0, x[0], W.generator(1, 3, 1)),
                   T.ray_vertex(2))
    base = TR.delta_xy(d0, x, y)
    w, s, i = x
    w_inv = W.delta_inv(d0, w)
    for pay in W.enumerate_payloads(d0, [1, 2]):
        sigma = W.syllable_word(s, pay)  # in the stabilizer of x_{i,s}
        dd = W.delta_mul(d0, sigma, w_inv)
        xf = T.act_word(d0, dd, x)
        assert xf == (W.EMPTY, s, i)
        inner = TR.delta_xy(d0, xf, T.act_word(d0, dd, y))
        again = W.delta_mul(
            d0, W.delta_inv(d0, dd), W.delta_mul(d0, inner, dd))
        assert again == base


def test_gamma_xy_moves_and_inverts(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    lvl2 = [t.verts[v] for v in range(t.n) if t.level(v) == 2]
    rng = random.Random(2)
    for _ in range(40):
        x, y = rng.sample(lvl2, 2)
        g = TR.gamma_xy(d0, x, y)
        assert T.act(d0, g, x) == y
        assert TR.gamma_xy(d0, y, x) == W.gamma_inv(d0, g)
    x = lvl2[0]
    assert TR.gamma_xy(d0, x, x) == gamma_identity(d0)
    with pytest.raises(LevelMismatch):
        TR.gamma_xy(d0, T.ray_vertex(1), T.ray_vertex(2))


def _gamma_xy_images_oracle(d, hb, x_vid, y):
    # the definition: one Gamma action of gamma_xy(x, y) per horoball vertex
    t = hb.tree
    g = TR.gamma_xy(d, t.verts[x_vid], y)
    for u_vid in hb.vertex_ids:
        u = t.verts[u_vid]
        yield u, T.act(d, g, u)


# balls small enough to cover every level-1 and level-2 horoball in seconds
_ORACLE_CASES = [("D0", 5), ("D1", 4), ("D2", 3), ("D3", 5), ("twisted", 4)]


def _datum(name):
    return twisted_datum() if name == "twisted" else D.builtin(name)


def _oracle_maps(name, radius):
    """The ball, and maps of three seeded Gamma elements on it: two with a
    non-identity Gamma0 part, so that images change ray, and one in Delta."""
    d = _datum(name)
    t = T.ball(d, T.base_vertex(), radius)
    rng = random.Random(5)
    words = W.enumerate_words(d, 2, [1, 2, 3])
    g0s = [g for g in range(d.gamma0.order) if g != d.ident0]
    elems = [(rng.choice(g0s), rng.choice(words)) for _ in range(2)]
    elems.append((d.ident0, rng.choice(words)))
    return d, t, [E.TreeMap.from_element(t, g) for g in elems]


@pytest.mark.parametrize("name,radius", [
    ("D0", 6), ("D1", 6), ("D2", 3), ("D3", 6), ("twisted", 5)])
def test_relative_coordinates_are_one_syllable_at_the_ray(name, radius):
    # w_x^-1 . u for u on the horoball of x at level l: ray s_x, and the
    # empty word or one syllable at ray s_x supported above l
    d = _datum(name)
    t = T.ball(d, T.base_vertex(), radius)
    syllables = 0
    for i in (1, 2, 3):
        for hb in H.horoballs(t, i):
            for x_vid in hb.horosphere_ids():
                sx = t.verts[x_vid][1]
                for w, s, l in hb.relative(x_vid):
                    assert s == sx and l >= i
                    if w:
                        assert len(w) == 1 and w[0][0] == sx
                        assert all(j > l for j, _ in w[0][1])
                        syllables += 1
    assert syllables > 0


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3", "twisted"])
def test_ray_change_factor_is_untwisted(name):
    # c = gamma_{s_y} gamma_{s_x}^-1 has c gamma_{s_x} = gamma_{s_y} exactly
    d = _datum(name)
    g0 = d.gamma0
    for sx in range(1, d.k + 1):
        for sy in range(1, d.k + 1):
            c = g0.mul(d.reps[sy - 1], g0.inv(d.reps[sx - 1]))
            assert d.nav[c][sx - 1] == (sy, d.ident0)


@pytest.mark.parametrize("name,radius", _ORACLE_CASES)
def test_gamma_xy_on_horoball_matches_gamma_xy(name, radius):
    d, t, maps = _oracle_maps(name, radius)
    same_ray = cross_ray = 0
    for h in maps:
        for i in (1, 2):
            for hb in H.horoballs(t, i):
                for x_vid in hb.horosphere_ids():
                    y = h.apply(t.verts[x_vid])
                    if y[1] == t.verts[x_vid][1]:
                        same_ray += 1
                    else:
                        cross_ray += 1
                    got = list(TR.gamma_xy_on_horoball(d, hb, x_vid, y))
                    assert got == list(_gamma_xy_images_oracle(d, hb, x_vid, y))
    # horoballs were moved both within a ray and across rays, where the
    # Gamma0 factor relabels the ray of the relative coordinate
    assert same_ray > 0 and cross_ray > 0


@pytest.mark.parametrize("name,radius", _ORACLE_CASES)
def test_check_li_matches_gamma_xy_oracle(name, radius, monkeypatch):
    # element maps, and copies damaged by swapping two same-level images
    d, t, maps = _oracle_maps(name, radius)
    rng = random.Random(11)
    for h in list(maps):
        for lv in (1, 2):
            a, b = rng.sample([v for v in t.verts if v[2] == lv], 2)
            pairs = tabulated_map(t, h.backing).pairs
            pairs[a], pairs[b] = pairs[b], pairs[a]
            maps.append(E.TreeMap(d, pairs))

    def certificates():
        return [E.check_Li(t, h, i, record_instances=True).to_json()
                for h in maps for i in (1, 2)]

    got = certificates()
    monkeypatch.setattr(TR, "gamma_xy_on_horoball", _gamma_xy_images_oracle)
    assert got == certificates()
    assert any(c["condition_a"]["failures"] for c in got)


def test_gamma_cocycle_sampled(d1):
    t = T.ball(d1, T.base_vertex(), 5)
    lvl1 = [t.verts[v] for v in range(t.n) if t.level(v) == 1]
    rng = random.Random(3)
    for _ in range(50):
        x, y, z = (lvl1[rng.randrange(len(lvl1))] for _ in range(3))
        lhs = W.gamma_mul(d1, TR.gamma_xy(d1, y, z), TR.gamma_xy(d1, x, y))
        assert lhs == TR.gamma_xy(d1, x, z)


def test_gamma_in_delta_for_same_orbit(d0):
    # vertices on the same translated ray index lie in one free-product
    # orbit and their transporter has no Gamma0 part
    t = T.ball(d0, T.base_vertex(), 5)
    lvl1 = [t.verts[v] for v in range(t.n) if t.level(v) == 1]
    for x in lvl1:
        for y in lvl1:
            if x[1] == y[1]:
                assert TR.gamma_xy(d0, x, y)[0] == d0.ident0


def test_tau_identity_and_adjacent(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    g = H.component_graph(t, 1)
    keys = g.node_keys()
    assert TR.tau_XY(d0, g, keys[0], keys[0]) == W.EMPTY
    a = keys[0]
    b = g.edges[a][0]
    x, y = g.witness(a, b)
    assert TR.tau_XY(d0, g, a, b) == TR.delta_xy(d0, x, y)


def test_tau_path_independence(d0):
    t = T.ball(d0, T.base_vertex(), 5)
    g = H.component_graph(t, 1)
    keys = g.node_keys()
    rng = random.Random(4)
    done = 0
    while done < 50:
        a, b = rng.sample(keys, 2)
        # random walk that reaches b
        path = [a]
        for _ in range(9):
            path.append(g.edges[path[-1]][rng.randrange(len(g.edges[path[-1]]))])
            if path[-1] == b:
                break
        if path[-1] != b:
            continue
        done += 1
        assert TR.tau_along(d0, g, path) == TR.tau_XY(d0, g, a, b)


def _digest(rep):
    # the whole report, per-rule slots and failures included
    return hashlib.sha256(S.dumps_canonical(rep.to_json()).encode()).hexdigest()


def _check_exhaustive(name, radius, total, digest):
    rep = TR.verify_transport(D.builtin(name), radius, levels=(1, 2), samples=0)
    assert rep.passed
    assert rep.total > 1000
    assert rep.total == total
    assert _digest(rep) == digest


def test_verify_transport_exhaustive_d0():
    _check_exhaustive("D0", 5, 137_014, "5304b35f6e95f151aae3517b1e2e8977"
                      "292f7243dcafeeda1b7291fa081f6599")


def test_verify_transport_exhaustive_d3():
    _check_exhaustive("D3", 4, 16_417, "60f03a83b1d11c9a9edb56a29b494183"
                      "84be05b8aff16c5b902303f5d7dfeab5")


def test_verify_transport_sampled_d2(d2):
    rep = TR.verify_transport(d2, 4, levels=(1, 2), samples=24, seed=9)
    assert rep.passed
    assert rep.total >= 200
    assert rep.total == 1190
    assert _digest(rep) == ("0b873ee929f39b48cb5a1f60ab738a1f"
                            "0399511dc3473a7a112a5a6dea5c09b9")


@pytest.mark.parametrize("name, radius, samples, seed, total, digest", [
    # the sampled sweep of the sweep-sampled benchmark and of CI
    ("D2", 4, 24, 1, 1169, "74c2d5da09b8447a2572237f2d107ee0"
                           "a969f268532058baf8f8cba14f75c7ad"),
    ("D0", 5, 30, 5, 819, "85865d9332e8964ed1ffe61fedb439b8"
                          "1f6b3679f6be7d33b00b92ec851b010f"),
])
def test_verify_transport_sampled_digests(name, radius, samples, seed, total,
                                          digest):
    rep = TR.verify_transport(D.builtin(name), radius, levels=(1, 2),
                              samples=samples, seed=seed)
    assert rep.passed
    assert rep.total == total
    assert _digest(rep) == digest


def test_sampled_sweep_builds_no_cubic_pool(d2):
    # D2 r4 has 252 level-1 vertices: a built gamma-cocycle triple list
    # alone is about 1.1 GB, the sampled sweep about 15 MB
    T.ball(d2, T.base_vertex(), 4)
    tracemalloc.start()
    try:
        TR.verify_transport(d2, 4, samples=24, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


SEQS = st.lists(st.integers(), max_size=5)


@settings(max_examples=200, deadline=None)
@given(SEQS, SEQS, SEQS)
@example([7], [8], [9])
@example([1, 2], [], [3])
def test_product_space_is_the_nested_comprehension(xs, ys, zs):
    space = TR.ProductSpace(xs, ys, zs)
    nested = [(x, y, z) for x in xs for y in ys for z in zs]
    assert [space[k] for k in range(len(space))] == nested
    assert list(space) == nested
    assert bool(space) == (len(space) > 0)
    with pytest.raises(IndexError):
        space[len(space)]


def test_fault_injection_is_detected():
    good = twisted_datum()
    rep = TR.verify_transport(good, 4, levels=(1, 2), samples=60, seed=13)
    assert rep.passed
    assert _digest(rep) == ("f26b81ba95ba02e25676f16f29588de2"
                            "0bf4028a00a80a0c092234e10c4f305d")
    bad = twisted_datum(corrupt=True)
    # the corruption is a non-action, caught by the algebra validator
    assert A.validate_action(bad.root(2).action)
    # and it surfaces as transporter-rule counterexamples
    tr = TR.verify_transport(bad, 4, levels=(1, 2), samples=60, seed=13)
    assert not tr.passed
    assert (tr.total, len(tr.failures)) == (1508, 21)
    assert _digest(tr) == ("e22109468b7851a71b7e50058e675a8f"
                           "ffafaf6d2ee4a928920b62cc91c22f6f")
    assert sum(slot["failed"] for slot in tr.rules.values()) == 21
    first = tr.failures[0]
    assert first["rule"] in tr.rules and first["instance"]
    assert first["witness"]


def test_restriction_rule_instance(d0):
    # gamma_{x,y} and gamma_{x',y'} agree on the horoball of x when x' is
    # on the horosphere of x and y' is the gamma-image of x'
    t = T.ball(d0, T.base_vertex(), 6)
    x = T.ray_vertex(1)
    y = T.ray_vertex(1, 2)
    g = TR.gamma_xy(d0, x, y)
    hb = H.horoball(t, x)
    for xp_vid in hb.horosphere_ids():
        xp = t.verts[xp_vid]
        yp = T.act(d0, g, xp)
        gp = TR.gamma_xy(d0, xp, yp)
        for vid in hb.vertex_ids:
            v = t.verts[vid]
            assert T.act(d0, g, v) == T.act(d0, gp, v)


def test_transporter_records(d0):
    # each transporter moves its source where it names: delta and gamma
    # carry the vertex, tau carries the source component into the target
    t = T.ball(d0, T.base_vertex(), 5)
    x1 = T.ray_vertex(1)
    y = T.act_word(d0, W.generator(1, 2, 1), x1)
    dl = TR.delta_xy(d0, x1, y)
    assert dl == W.generator(1, 2, 1)
    assert T.act(d0, (d0.ident0, dl), x1) == y
    gm = TR.gamma_xy(d0, x1, T.ray_vertex(1, 2))
    assert T.act(d0, gm, x1) == T.ray_vertex(1, 2)
    g = H.component_graph(t, 1)
    a = g.node_keys()[0]
    b = g.edges[a][0]
    tau = TR.tau_XY(d0, g, a, b)
    dst = set(g.components[b].vertices())
    for v in g.components[a].vertices():
        img = T.act(d0, (d0.ident0, tau), v)
        assert img not in t or img in dst


# -- failure paths of the memoised rules ---------------------------------------
# Each test damages one transporter for one ordered pair, runs the exhaustive
# level-1 sweep on the twisted datum at r4 (horospheres of three vertices,
# seven components), and compares the failed instances with those that fail
# when the rules are evaluated directly on the damaged function.

def _damage(monkeypatch, name, pair, spoil):
    real = getattr(TR, name)

    def damaged(*args):
        out = real(*args)
        return spoil(out) if args[-2:] == pair else out

    monkeypatch.setattr(TR, name, damaged)
    return damaged


def _failed(rep, rule, n=None):
    return {tuple(f["witness"].values())[:n] for f in rep.failures
            if f["rule"] == rule}


def _inverse_and_cocycle_oracle(classes, f, mul, inv, distinct=False):
    """The failing inverse and cocycle instances of f over the pairs and
    triples inside each class, as witness strings."""
    inverse = {(str(x), str(y)) for c in classes for x in c for y in c
               if (x != y or not distinct) and f(y, x) != inv(f(x, y))}
    cocycle = {(str(x), str(y), str(z))
               for c in classes for x in c for y in c for z in c
               if mul(f(y, z), f(x, y)) != f(x, z)}
    return inverse, cocycle


def _assert_inverse_and_cocycle(rep, family, pair, inverse, cocycle):
    named = tuple(map(str, pair))
    assert inverse == {named, named[::-1]}
    assert _failed(rep, f"{family}-inverse") == inverse
    assert _failed(rep, f"{family}-cocycle") == cocycle
    # every failed cocycle instance names both vertices of the damaged pair
    assert cocycle and all(set(named) <= set(w) for w in cocycle)


def _twisted_level1():
    d = twisted_datum()
    t = T.ball(d, T.base_vertex(), 4)
    lv = sorted((v for v in t.verts if v[2] == 1), key=T.address_key)
    return d, t, lv


def test_damaged_delta_fails_its_inverse_and_cocycle_rules(monkeypatch):
    d, t, lv = _twisted_level1()
    spheres = {tuple(y for y in lv if H.in_same_horosphere(d, x, y))
               for x in lv}
    sphere = max(spheres, key=len)
    assert len(sphere) == 3  # a third vertex tells (x, y) from (y, x)
    pair = (sphere[0], sphere[1])
    spoil = W.enumerate_words(d, 1, [1])[1]
    f = _damage(monkeypatch, "delta_xy", pair,
                lambda w: W.delta_mul(d, w, spoil))
    rep = TR.verify_transport(d, 4, levels=(1,), samples=0)
    inverse, cocycle = _inverse_and_cocycle_oracle(
        spheres, lambda x, y: f(d, x, y), lambda a, b: W.delta_mul(d, a, b),
        lambda a: W.delta_inv(d, a))
    _assert_inverse_and_cocycle(rep, "delta", pair, inverse, cocycle)


def test_damaged_gamma_fails_its_inverse_cocycle_and_restriction_rules(
        monkeypatch):
    d, t, lv = _twisted_level1()
    pair = (lv[0], lv[-1])
    # h in H0 fixes x = x_{1,1} and inverts the U_2 payloads on its
    # horoball (the twisted action), so gamma_{x,y} * h still moves x to y
    # but differs from gamma_{x',y'} on HB(x)
    assert pair[0] == T.ray_vertex(1)
    spoil = (next(h for h in d.h0.members if h != d.ident0), W.EMPTY)
    f = _damage(monkeypatch, "gamma_xy", pair,
                lambda g: W.gamma_mul(d, g, spoil))
    rep = TR.verify_transport(d, 4, levels=(1,), samples=0)
    gxy = functools.partial(f, d)
    inverse, cocycle = _inverse_and_cocycle_oracle(
        [lv], gxy, lambda a, b: W.gamma_mul(d, a, b),
        lambda a: W.gamma_inv(d, a))
    _assert_inverse_and_cocycle(rep, "gamma", pair, inverse, cocycle)
    restriction = set()
    for x in lv:
        hb = H.horoball(t, x)
        for y in lv:
            g = gxy(x, y)
            for xp in (t.verts[v] for v in hb.horosphere_ids()):
                gp = gxy(xp, T.act(d, g, xp))
                if any(T.act(d, g, t.verts[v]) != T.act(d, gp, t.verts[v])
                       for v in hb.vertex_ids):
                    restriction.add((str(x), str(y), str(xp)))
    assert _failed(rep, "gamma-restriction") == restriction
    assert any(w[:2] == tuple(map(str, pair)) for w in restriction)


def test_damaged_tau_fails_its_inverse_cocycle_and_path_rules(monkeypatch):
    d, t, _ = _twisted_level1()
    g = H.component_graph(t, 1)
    keys = g.node_keys()
    assert len(keys) >= 3
    pair = (keys[0], g.edges[keys[0]][0])  # adjacent: the random walks reach it
    spoil = W.enumerate_words(d, 1, [1])[1]
    f = _damage(monkeypatch, "tau_XY", pair,
                lambda w: W.delta_mul(d, w, spoil))
    rep = TR.verify_transport(d, 4, levels=(1,), samples=0)
    inverse, cocycle = _inverse_and_cocycle_oracle(
        [keys], lambda a, b: f(d, g, a, b), lambda a, b: W.delta_mul(d, a, b),
        lambda a: W.delta_inv(d, a), distinct=True)
    _assert_inverse_and_cocycle(rep, "tau", pair, inverse, cocycle)
    assert _failed(rep, "tau-path-independence", 2) == {tuple(map(str, pair))}
