import functools
import json
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_li_oracle, count_calls, gamma_identity,
                      greedy_match_oracle, reverse_component_graphs,
                      rotating_star, tabulated_map, twisted_datum)
from nagaotree import cli
from nagaotree import datum as D
from nagaotree import extension as E
from nagaotree import horo as H
from nagaotree import tree as T
from nagaotree import twincodist as TC
from nagaotree import words as W
from nagaotree.errors import (CannotExtendInTruncation, NonCanonicalAddress,
                              NotIsomorphism, NotLevelPreserving,
                              TruncationExceeded, TypeMismatch)


def base_component_map(d, t, i, g):
    """The restriction of a group element to the base component, as input
    for the extension operator."""
    graph = H.component_graph(t, i)
    key = graph.comp_of_vid[t.vid(T.base_vertex())]
    comp = graph.components[key]
    return E.TreeMap(d, {v: T.act(d, g, v) for v in comp.vertices()},
                     backing=g)


def test_greedy_identity_on_subray(d0, ball_d0_6):
    psi = E.TreeMap(d0, {T.ray_vertex(i): T.ray_vertex(i) for i in range(4)})
    out = E.greedy_extend(ball_d0_6, psi)
    assert len(out.pairs) >= ball_d0_6.n
    assert all(out.pairs[v] == v for v in ball_d0_6.verts)


def test_greedy_swap_example(d0):
    t = T.ball(d0, T.base_vertex(), 4)
    x0, x1, x2 = T.base_vertex(), T.ray_vertex(1), T.ray_vertex(2)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    psi = E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1, x2: x2})
    out = E.greedy_extend(t, psi)
    assert out.pairs[x0] == u_x0 and out.pairs[u_x0] == x0
    assert out.is_level_preserving()
    # injective adjacency-preserving on the whole ball
    assert len(set(out.pairs.values())) == len(out.pairs)
    for vid in t.interior_ids():
        v = t.verts[vid]
        img_nbrs = set(T.neighbors(d0, out.pairs[v]))
        for uid in t.adj[vid]:
            assert out.pairs[t.verts[uid]] in img_nbrs


def test_greedy_rejects_level_breaking_input(d0, ball_d0_6):
    psi = E.TreeMap(d0, {T.base_vertex(): T.ray_vertex(2)})
    with pytest.raises(NotLevelPreserving):
        E.greedy_extend(ball_d0_6, psi)


def test_greedy_rejects_non_isomorphism(d0, ball_d0_6):
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    x2 = T.ray_vertex(2)
    # x0 ~ x1 but their images are not adjacent
    psi = E.TreeMap(d0, {x0: x0, x1: T.ray_vertex(1, 2), x2: x2})
    with pytest.raises(NotIsomorphism):
        E.greedy_extend(ball_d0_6, psi)


@pytest.mark.parametrize("case,message", [
    ("empty", "empty map"),
    ("non-injective", "map is not injective"),
    ("disconnected", "domain is not a connected subtree"),
    # the walk validates only the vertices it reaches from the least
    # address, so an unreachable non-canonical address is not looked at
    ("disconnected-non-canonical", "domain is not a connected subtree"),
])
def test_greedy_rejects_malformed_domain(d0, ball_d0_6, case, message):
    x0, x2 = T.base_vertex(), T.ray_vertex(2)
    pairs = {
        "empty": {},
        "non-injective": {T.ray_vertex(1): T.ray_vertex(1),
                          T.ray_vertex(1, 2): T.ray_vertex(1)},
        "disconnected": {x0: x0, x2: x2},
        "disconnected-non-canonical": {x0: x0, (W.EMPTY, 0, 2): (W.EMPTY, 0, 2)},
    }[case]
    with pytest.raises(NotIsomorphism, match=message):
        E.greedy_extend(ball_d0_6, E.TreeMap(d0, pairs))


def test_greedy_deterministic(d0, ball_d0_6):
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    psi = E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1})
    a = E.greedy_extend(ball_d0_6, psi)
    b = E.greedy_extend(ball_d0_6, psi)
    assert a.pairs == b.pairs


def _seeded_swaps(d, t, rng, n=4):
    """Maps exchanging two down-neighbors of x_{j,s} (j = 1 or 2) and
    fixing x_{j,s}, translated by a seeded word, on in-ball vertices."""
    words = W.enumerate_words(d, 1, [1, 2])
    out = []
    while len(out) < n:
        j, s = rng.choice((1, 2)), rng.randrange(1, d.k + 1)
        grp = d.root(j).group
        u = rng.choice([x for x in range(grp.order) if x != grp.identity])
        down = T.ray_vertex(j - 1, s)
        path = (down, T.act_word(d, W.generator(s, j, u), down),
                T.ray_vertex(j, s))
        w = rng.choice(words)
        a, b, c = (T.act_word(d, w, v) for v in path)
        if a in t and b in t and c in t:
            out.append({a: b, b: a, c: c})
    return out


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3", "twisted"])
def test_greedy_matchers_equal_the_heap_oracle(name):
    # the stack matcher gives the map of the address-ordered heap, for
    # greedy_extend at every level bound and for extend_type_preserving
    d = twisted_datum() if name == "twisted" else D.builtin(name)
    t = T.ball(d, T.base_vertex(), 3 if name == "D2" else 5)
    rng = random.Random(17)
    for pairs in _seeded_swaps(d, t, rng) + [rotating_star(d).pairs]:
        phi = E.TreeMap(d, pairs)
        for bound in (1, 2, 3, None):
            assert (E.greedy_extend(t, phi, level_bound=bound).pairs
                    == greedy_match_oracle(t, pairs, itemgetter(2), bound))
        cls = TC.vertex_type if d.profile.biregular else itemgetter(2)
        assert (E.extend_type_preserving(t, phi).pairs
                == greedy_match_oracle(t, pairs, cls))


def test_check_li_identity(d0, ball_d0_6):
    ident = E.TreeMap.from_element(ball_d0_6, gamma_identity(d0))
    cert = E.check_Li(ball_d0_6, ident, 1)
    assert cert.valid


@pytest.mark.parametrize("i", [1, 2])
def test_check_li_delta_words_smoke(d0, ball_d0_6, i):
    for w in W.enumerate_words(d0, 2, [1, 2])[:40]:
        h = E.TreeMap.from_element(ball_d0_6, (d0.ident0, w))
        cert = E.check_Li(ball_d0_6, h, i)
        assert cert.valid, (w, cert.first_violation())


def test_check_li_catches_horoball_violation(d0, ball_d0_6):
    # act by a level-4 root element on the two level-3 horoballs it swaps,
    # identity elsewhere: level-preserving and injective, but on the
    # horoball of x_2 it moves x_3 while fixing x_2, violating (a) at i=2
    t = ball_d0_6
    g = (d0.ident0, W.generator(1, 4, 1))
    x3 = T.ray_vertex(3)
    u_x3 = T.act(d0, g, x3)
    assert u_x3 != x3
    moved = set(H.horoball(t, x3).vertex_ids) | set(H.horoball(t, u_x3).vertex_ids)
    pairs = {}
    for vid in range(t.n):
        v = t.verts[vid]
        pairs[v] = T.act(d0, g, v) if vid in moved else v
    h = E.TreeMap(d0, pairs)
    assert h.is_level_preserving()
    cert = E.check_Li(t, h, 2)
    assert not cert.valid
    viol = cert.first_violation()
    assert viol["condition"] == "a"


def _li_pool(d):
    """The word pool of the li suite, as suite_li chooses it from k."""
    word_len, support = (2, 3) if d.k <= 3 else (1, 2)
    return W.enumerate_words(d, word_len, list(range(1, support + 1)))


@pytest.mark.parametrize("name", ["D0", "D3"])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_check_li_valid_iff_no_violation(name, radius):
    d = D.builtin(name)
    t = T.ball(d, T.base_vertex(), radius)
    for i in (1, 2):
        for w in _li_pool(d):
            cert = E.check_Li(t, E.TreeMap.from_element(t, (d.ident0, w)), i)
            # the two-rule form of validity, before it was derived from
            # first_violation
            oracle = (cert.level_preserving and cert.condition_a.passed
                      and not cert.condition_b.failures)
            assert cert.valid == (cert.first_violation() is None) == oracle


@pytest.mark.parametrize("radius", [0, 1])
def test_li_suite_skips_unchecked_certificates(radius, capsys):
    # at r1 only the level-1 horoballs are in view, at r0 none: a
    # certificate whose condition (a) checks nothing is skipped, not failed
    for name in ("D0", "D1", "D2", "D3"):
        code = cli.main(["suite", "--datum", name, "--radius", str(radius),
                         "--suites", "li"])
        (rep,) = json.loads(capsys.readouterr().out)["reports"]
        words = len(_li_pool(D.builtin(name)))
        assert rep["failures"] == []
        assert rep["checked"] == radius * words
        assert rep["info"]["skipped"] == (2 - radius) * words
        assert rep["passed"] is bool(radius)
        assert code == (0 if radius else 1)


# condition (a) against its per-base-point oracle: balls with horospheres of
# up to six base points, the twisted pair at every level it shows
_LI_ORACLE_BALLS = {"D0": 5, "D1": 5, "D3": 5, "twisted": 4,
                    "twisted-corrupt": 4}


@functools.cache
def _li_oracle_case(name):
    if name.startswith("twisted"):
        d = twisted_datum(corrupt=name == "twisted-corrupt")
    else:
        d = D.builtin(name)
    t = T.ball(d, T.base_vertex(), _LI_ORACLE_BALLS[name])
    levels = (1, 2, 3) if name.startswith("twisted") else (1, 2)
    g0s = [g for g in range(d.gamma0.order) if g != d.ident0]
    by_level = [[v for v in t.verts if v[2] == lv] for lv in (1, 2, 3)]
    return d, t, levels, g0s, _li_pool(d), by_level


def _first_multi_horoball(t, i):
    return next(hb for hb in H.horoballs(t, i) if len(hb.horosphere_ids()) > 1)


def _assert_matches_oracle(t, h, i):
    cert = E.check_Li(t, h, i, record_instances=True)
    assert cert.to_json() == check_li_oracle(t, h, i, True).to_json()
    return cert


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_check_li_matches_per_base_point_oracle(data):
    name = data.draw(st.sampled_from(sorted(_LI_ORACLE_BALLS)))
    d, t, levels, g0s, pool, by_level = _li_oracle_case(name)
    g = (data.draw(st.sampled_from(g0s)), data.draw(st.sampled_from(pool)))
    h = tabulated_map(t, g)
    if data.draw(st.booleans()):
        # damage: swap the images of two vertices of one level in 1..3
        same = data.draw(st.sampled_from(by_level))
        a, b = data.draw(st.lists(st.sampled_from(same), min_size=2,
                                  max_size=2, unique=True))
        h.pairs[a], h.pairs[b] = h.pairs[b], h.pairs[a]
    view = data.draw(st.integers(0, t.radius))
    if view < t.radius:
        # partial: the map is known only within distance `view` of the base
        h = E.TreeMap(d, {v: img for v, img in h.pairs.items()
                          if t.dist[t.vid(v)] <= view})
    _assert_matches_oracle(t, h, data.draw(st.sampled_from(levels)))


@pytest.mark.parametrize("name", sorted(_LI_ORACLE_BALLS))
def test_check_li_fails_at_the_first_base_point(name):
    # two level-(i+1) images swapped inside a horoball whose horosphere has
    # several base points: the first base point already fails, and its
    # witness is the oracle's
    d, t, _, g0s, pool, _ = _li_oracle_case(name)
    h = tabulated_map(t, (g0s[0], pool[-1]))
    hb = _first_multi_horoball(t, 1)
    a, b = [t.verts[u] for u in hb.vertex_ids if t.level(u) == 2][:2]
    h.pairs[a], h.pairs[b] = h.pairs[b], h.pairs[a]
    cert = _assert_matches_oracle(t, h, 1)
    x = t.verts[hb.horosphere_ids()[0]]
    assert cert.first_violation()["witness"]["x"] == str(x)


@pytest.mark.parametrize("name", sorted(_LI_ORACLE_BALLS))
@pytest.mark.parametrize("i", [1, 2])
def test_check_li_partial_map_skips_base_points(name, i):
    # the first base point of a horosphere is out of view, so its image list
    # is formed at the second one, and the skipped count is the oracle's
    d, t, _, g0s, pool, _ = _li_oracle_case(name)
    pairs = tabulated_map(t, (g0s[-1], pool[1])).pairs
    del pairs[t.verts[_first_multi_horoball(t, i).horosphere_ids()[0]]]
    cert = _assert_matches_oracle(t, E.TreeMap(d, pairs), i)
    assert cert.condition_a.skipped >= 1
    assert cert.condition_a.checked >= 1


# an element map against the same element tabulated over the whole ball
_TABULATED_BALLS = {"D0": 6, "D1": 5, "D3": 5, "twisted": 4}


@pytest.mark.parametrize("name", sorted(_TABULATED_BALLS))
@pytest.mark.parametrize("i", [1, 2])
def test_check_li_element_map_matches_tabulated_map(name, i):
    d = twisted_datum() if name == "twisted" else D.builtin(name)
    t = T.ball(d, T.base_vertex(), _TABULATED_BALLS[name])
    rng = random.Random(41)
    g0s = [g for g in range(d.gamma0.order) if g != d.ident0]
    pool = _li_pool(d)
    elems = [(rng.choice(g0s), rng.choice(pool)) for _ in range(4)]
    elems.append((d.ident0, rng.choice(pool)))
    for g in elems:
        want = E.check_Li(t, tabulated_map(t, g), i,
                          record_instances=True).to_json()
        got = E.check_Li(t, E.TreeMap.from_element(t, g), i,
                         record_instances=True).to_json()
        assert got == want
        assert want["condition_a"]["checked"] > 0


def test_extend_E_identity_is_identity(d0, ball_d0_6):
    h = base_component_map(d0, ball_d0_6, 1, gamma_identity(d0))
    out = E.extend_E(ball_d0_6, h, 1)
    assert all(out.pairs[v] == v for v in ball_d0_6.verts)


@pytest.mark.parametrize("i", [1, 2])
def test_extend_E_agrees_with_element_action(d0, ball_d0_6, i):
    rng = random.Random(17)
    pool = [w for w in W.enumerate_words(d0, 2, [1, 2, 3]) if w]
    for _ in range(25):
        w = pool[rng.randrange(len(pool))]
        g = (d0.ident0, w)
        h = base_component_map(d0, ball_d0_6, i, g)
        out = E.extend_E(ball_d0_6, h, i)
        for v in ball_d0_6.verts:
            assert out.pairs[v] == T.act(d0, g, v)


def test_extend_E_restricts_to_input(d0, ball_d0_6):
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    g = E.greedy_extend(ball_d0_6, E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1}),
                        level_bound=1)
    out = E.extend_E(ball_d0_6, g, 1)
    # the greedy input also matched a frontier layer beyond the ball; the
    # extension is total on the ball and must agree there
    for v, img in g.pairs.items():
        if v in ball_d0_6:
            assert out.pairs[v] == img
    cert = E.check_Li(ball_d0_6, out, 1)
    assert cert.valid


def test_extend_E_bfs_order_independent(d0, ball_d0_6, monkeypatch):
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    g = E.greedy_extend(ball_d0_6, E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1}),
                        level_bound=1)
    a = E.extend_E(ball_d0_6, g, 1)
    reverse_component_graphs(monkeypatch, ball_d0_6, 1)
    assert E.extend_E(ball_d0_6, g, 1).pairs == a.pairs


def test_extend_E_truncation_error_on_partial_input(d0, ball_d0_6):
    # a map given on a strict subset of the base component, without backing
    graph = H.component_graph(ball_d0_6, 1)
    key = graph.comp_of_vid[ball_d0_6.vid(T.base_vertex())]
    comp = graph.components[key]
    some = sorted(comp.vertices(), key=T.address_key)[: max(3, len(comp.vertex_ids) // 4)]
    # keep the domain connected: take a small subtree around the base
    sub = {T.base_vertex()}
    for v in some:
        path = T.geodesic(ball_d0_6, T.base_vertex(), v)
        sub.update(path)
    sub = {v for v in sub if v[2] <= 1}
    h = E.TreeMap(d0, {v: v for v in sub})
    with pytest.raises(TruncationExceeded):
        E.extend_E(ball_d0_6, h, 1)


def test_homomorphism_probe_identities(d0, ball_d0_6):
    ident = base_component_map(d0, ball_d0_6, 1, gamma_identity(d0))
    rep = E.homomorphism_probe(ball_d0_6, ident, ident, 1)
    assert rep.passed


def test_homomorphism_probe_delta_elements(d0, ball_d0_6):
    g = base_component_map(d0, ball_d0_6, 1, (0, W.generator(1, 1, 1)))
    h = base_component_map(d0, ball_d0_6, 1, (0, W.generator(2, 1, 1)))
    rep = E.homomorphism_probe(ball_d0_6, g, h, 1)
    assert rep.passed


def test_homomorphism_probe_greedy_pairs(d0, ball_d0_6):
    rng = random.Random(23)
    t = ball_d0_6
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    swap = E.greedy_extend(t, E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1}),
                           level_bound=1)
    ident = E.greedy_extend(t, E.TreeMap(d0, {x0: x0, x1: x1}), level_bound=1)
    # random pair choices among elements and the two greedy maps
    pool = [w for w in W.enumerate_words(d0, 1, [1]) if w]
    maps = [swap, ident] + [
        base_component_map(d0, t, 1, (0, w)) for w in pool
    ]
    for _ in range(20):
        g, h = rng.choice(maps), rng.choice(maps)
        rep = E.homomorphism_probe(t, g, h, 1)
        assert rep.passed, rep.entries


def test_commensuration_identity_witness(d0, ball_d0_6):
    Eg = E.TreeMap.from_element(ball_d0_6, gamma_identity(d0))
    samples = [W.generator(1, 2, 1), W.generator(2, 1, 1)]
    rep = E.commensuration_probe(ball_d0_6, Eg, samples, 1)
    assert rep.passed
    d = d0
    for entry, delta in zip(rep.entries, samples):
        dj = W.word_from_json(d, entry["delta_j"])
        expect = W.delta_mul(d, W.delta_inv(d, dj), delta)
        assert W.word_from_json(d, entry["witness"]) == expect


def test_commensuration_shifts_enumerated_once(d0, ball_d0_6, monkeypatch):
    # the shift list depends on i only, not on the sample
    calls = []
    enumerate_words = W.enumerate_words

    def counted(*args):
        calls.append(args)
        return enumerate_words(*args)

    monkeypatch.setattr(W, "enumerate_words", counted)
    Eg = E.TreeMap.from_element(ball_d0_6, gamma_identity(d0))
    samples = [W.generator(1, 2, 1), W.generator(2, 1, 1), W.generator(1, 1, 1)]
    rep = E.commensuration_probe(ball_d0_6, Eg, samples, 2)
    assert rep.passed
    assert calls == [(d0, 2, [1, 2])]


def test_commensuration_element_conjugation(d0, ball_d0_6):
    d = d0
    delta0 = W.generator(1, 1, 1)
    Eg = E.TreeMap.from_element(ball_d0_6, (d.ident0, delta0))
    samples = [W.generator(2, 1, 1), W.generator(1, 2, 1)]
    rep = E.commensuration_probe(ball_d0_6, Eg, samples, 1)
    assert rep.passed
    for entry, delta in zip(rep.entries, samples):
        dj = W.word_from_json(d, entry["delta_j"])
        expect = W.delta_mul(
            d, W.delta_inv(d, delta0),
            W.delta_mul(d, W.delta_inv(d, dj),
                        W.delta_mul(d, delta, delta0)))
        assert W.word_from_json(d, entry["witness"]) == expect


def test_commensuration_nontrivial_extension(d0, ball_d0_6):
    rng = random.Random(5)
    t = ball_d0_6
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    g = E.greedy_extend(t, E.TreeMap(d0, {x0: u_x0, u_x0: x0, x1: x1}),
                        level_bound=1)
    Eg = E.extend_E(t, g, 1)
    pool = [w for w in W.enumerate_words(d0, 3, [1, 2])
            if w and T.act_word(d0, w, x0) in t]
    samples = [pool[rng.randrange(len(pool))] for _ in range(30)]
    rep = E.commensuration_probe(t, Eg, samples, 1)
    assert rep.passed
    assert all(e["ok"] for e in rep.entries)


def test_pipeline_identity(d0):
    phi = E.TreeMap(d0, {v: v for v in [T.base_vertex()]
                         + T.neighbors(d0, T.base_vertex())})
    ext, rep = E.density_pipeline(d0, phi, 6, n_samples=4, seed=1)
    assert rep.selected_i == 2
    assert rep.passed
    assert all(img == v for v, img in ext.pairs.items())


def test_pipeline_swap(d0):
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d0, W.generator(1, 1, 1), x0)
    phi = E.TreeMap(d0, {x1: x1, x0: u_x0, u_x0: x0})
    ext, rep = E.density_pipeline(d0, phi, 6, n_samples=6, seed=2)
    assert rep.passed and rep.selected_i == 2
    assert rep.certificate.valid
    for v, img in phi.pairs.items():
        assert ext.pairs[v] == img


def test_pipeline_selects_defect_level_for_d3(d3):
    phi = E.TreeMap(d3, {T.base_vertex(): T.base_vertex(),
                         T.ray_vertex(1): T.ray_vertex(1)})
    ext, rep = E.density_pipeline(d3, phi, 6, n_samples=3, seed=3)
    # first parity defect is at l = 0 (q_0 = 2, q_2 = 3), so i = 3
    assert rep.selected_i == 3
    assert rep.certificate.valid


def test_pipeline_rejects_out_of_ball_input(d0):
    far = (W.EMPTY, 1, 9)
    phi = E.TreeMap(d0, {far: far})
    with pytest.raises(CannotExtendInTruncation):
        E.density_pipeline(d0, phi, 6)


def test_type_preserving_identity(d0, ball_d0_6):
    ball1 = [T.base_vertex()] + T.neighbors(d0, T.base_vertex())
    phi = E.TreeMap(d0, {v: v for v in ball1})
    out = E.extend_type_preserving(ball_d0_6, phi)
    assert all(out.apply(v) == v for v in ball1)


def test_type_preserving_disjoint_balls(d0, ball_d0_6):
    z2 = T.act_word(d0, W.generator(1, 2, 1), T.base_vertex())
    n1 = sorted(T.neighbors(d0, T.base_vertex()), key=T.address_key)
    n2 = sorted(T.neighbors(d0, z2), key=T.address_key)
    pairs = {T.base_vertex(): z2, **dict(zip(n1, n2))}
    out = E.extend_type_preserving(ball_d0_6, E.TreeMap(d0, pairs))
    for v, img in pairs.items():
        assert out.apply(v) == img
    assert out.is_type_preserving()
    assert len(out.pairs) > len(pairs)


def test_type_preserving_shifts_levels(d0, ball_d0_6):
    x2 = T.ray_vertex(2)
    n1 = sorted(T.neighbors(d0, T.base_vertex()), key=T.address_key)
    n2 = sorted(T.neighbors(d0, x2), key=T.address_key)
    pairs = {T.base_vertex(): x2, **dict(zip(n1, n2))}
    out = E.extend_type_preserving(ball_d0_6, E.TreeMap(d0, pairs))
    assert out.is_type_preserving()
    assert not out.is_level_preserving()
    # adjacency preserved everywhere defined
    for v in out.pairs:
        nbrs = set(T.neighbors(d0, out.pairs[v]))
        for u in T.neighbors(d0, v):
            if u in out.pairs:
                assert out.pairs[u] in nbrs


def test_check_li_refuses_a_map_that_moves_levels(d0, ball_d0_6):
    # the type-preserving extension above moves x0 to x2: no condition is
    # evaluated, and the violation names the levels
    x2 = T.ray_vertex(2)
    n1 = sorted(T.neighbors(d0, T.base_vertex()), key=T.address_key)
    n2 = sorted(T.neighbors(d0, x2), key=T.address_key)
    pairs = {T.base_vertex(): x2, **dict(zip(n1, n2))}
    out = E.extend_type_preserving(ball_d0_6, E.TreeMap(d0, pairs))
    cert = E.check_Li(ball_d0_6, out, 1)
    assert not cert.valid
    assert cert.first_violation() == {"condition": "level", "witness": None}
    for cond in (cert.condition_a, cert.condition_b):
        assert (cond.checked, cond.skipped, cond.failures) == (0, 0, [])


def test_extend_E_refuses_an_anchor_above_the_level(d0, ball_d0_6):
    x3 = T.ray_vertex(3)
    with pytest.raises(NotLevelPreserving,
                       match=r"^domain vertex \(\(\), 1, 3\) has level > 1$"):
        E.extend_E(ball_d0_6, E.TreeMap(d0, {x3: x3}), 1)


# x_{1,1} under a name whose word U_{1,1} reduces away: not canonical
_X1_UNREDUCED = (W.generator(1, 1, 1), 1, 1)


@pytest.mark.parametrize("extend", [
    E.greedy_extend, functools.partial(E.extend_E, i=1)],
    ids=["greedy_extend", "extend_E"])
@pytest.mark.parametrize("pairs, exc, message", [
    # the root image is validated first
    ({T.base_vertex(): ((), 1, 0)}, NonCanonicalAddress,
     "level-0 address must carry s=0: ((), 1, 0)"),
    # then the root
    ({_X1_UNREDUCED: T.ray_vertex(1)}, NonCanonicalAddress,
     "word not reduced modulo Stab(x_{1,1}): "
     "(((1, ((1, 1),)),), 1, 1)"),
    # a later image is tested against the root image's neighbors only
    ({T.base_vertex(): T.base_vertex(), T.ray_vertex(1): _X1_UNREDUCED},
     NotIsomorphism, "edge ((), 0, 0)~((), 1, 1) not preserved"),
], ids=["root-image", "root", "later-image"])
def test_extension_refuses_non_canonical_addresses(d0, ball_d0_6, extend,
                                                   pairs, exc, message):
    with pytest.raises(exc) as info:
        extend(ball_d0_6, E.TreeMap(d0, pairs))
    assert str(info.value) == message


def test_extension_refuses_an_element_map(d0, ball_d0_6):
    # an element map has no explicit graph; the operators read only that
    h = E.TreeMap.from_element(ball_d0_6, gamma_identity(d0))
    with pytest.raises(NotIsomorphism, match="^empty map$"):
        E.extend_E(ball_d0_6, h, 1)


def test_type_preserving_rejects_type_mismatch(d0, ball_d0_6):
    x1 = T.ray_vertex(1)
    n1 = sorted(T.neighbors(d0, x1), key=T.address_key)
    n0 = sorted(T.neighbors(d0, T.base_vertex()), key=T.address_key)
    # stars of x1 (three neighbors) and x0 (three neighbors) are abstractly
    # isomorphic but the centers have different types
    pairs = {x1: T.base_vertex(), **dict(zip(n1, n0))}
    with pytest.raises(TypeMismatch):
        E.extend_type_preserving(ball_d0_6, E.TreeMap(d0, pairs))


def test_type_preserving_extends_radius_two_ball(d0):
    # the radius-2 ball of x0 onto that of x2, matched layer by layer: each
    # vertex's new neighbors go to its image's free neighbors in address order
    t = T.ball(d0, T.base_vertex(), 8)
    pairs = {T.base_vertex(): T.ray_vertex(2)}
    layer = list(pairs)
    for _ in range(2):
        nxt = []
        for v in layer:
            used = set(pairs.values())
            new = sorted((u for u in T.neighbors(d0, v) if u not in pairs),
                         key=T.address_key)
            free = sorted((u for u in T.neighbors(d0, pairs[v])
                           if u not in used), key=T.address_key)
            pairs.update(zip(new, free))
            nxt += new
        layer = nxt
    assert len(pairs) == 10
    out = E.extend_type_preserving(t, E.TreeMap(d0, pairs))
    E._check_partial_iso(d0, out.pairs, require_levels=False)
    assert out.is_type_preserving()
    assert not out.is_level_preserving()
    assert all(out.pairs[v] == img for v, img in pairs.items())
    assert all(v in out.pairs for v in t.verts)


def test_type_preserving_delegates_when_not_biregular(d3):
    t = T.ball(d3, T.base_vertex(), 6)
    ball1 = [T.base_vertex()] + T.neighbors(d3, T.base_vertex())
    phi = E.TreeMap(d3, {v: v for v in ball1})
    out = E.extend_type_preserving(t, phi)
    assert len(out.pairs) >= t.n
    assert all(out.pairs[v] == v for v in t.verts)


def test_extend_E_reproduces_mixed_group_elements(d1, ball_d0_6):
    # uniqueness pins E of a restriction of any level-preserving group
    # element, including ones with a nontrivial finite part
    import random as _random
    d = d1
    t = T.ball(d, T.base_vertex(), 5)
    graph = H.component_graph(t, 1)
    key = graph.comp_of_vid[t.vid(T.base_vertex())]
    comp = graph.components[key]
    rng = _random.Random(71)
    pool = [w for w in W.enumerate_words(d, 2, [1, 2])]
    for _ in range(20):
        g = (rng.randrange(d.gamma0.order), pool[rng.randrange(len(pool))])
        h = E.TreeMap(d, {v: T.act(d, g, v) for v in comp.vertices()},
                      backing=g)
        out = E.extend_E(t, h, 1)
        for v in t.verts:
            assert out.pairs[v] == T.act(d, g, v)


@pytest.mark.parametrize("name, radius, i", [
    ("D0", 6, 2), ("D3", 6, 2), ("D3", 7, 1), ("D0", 10, 2)])
def test_extend_E_reverse_bfs_levels(name, radius, i, monkeypatch):
    # both walk orders of the component graph give one map: the extension
    # of a greedy swap, and that of a group element's restriction.  At r6
    # every component touches the base one; at D3 r7 (i = 1) and D0 r10
    # (i = 2) some lie two layers out
    d = D.builtin(name)
    t = T.ball(d, T.base_vertex(), radius)
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d, W.generator(1, 1, 1), x0)
    swap = E.greedy_extend(t, E.TreeMap(d, {x0: u_x0, u_x0: x0, x1: x1}),
                           level_bound=i)
    a = E.extend_E(t, swap, i)
    assert len(a.pairs) == t.n and E.check_Li(t, a, i).valid
    g = (d.ident0, W.delta_mul(d, W.generator(2, 2, 1), W.generator(1, 1, 1)))
    h = base_component_map(d, t, i, g)
    b = E.extend_E(t, h, i)
    reverse_component_graphs(monkeypatch, t, i)
    assert E.extend_E(t, swap, i).pairs == a.pairs
    for out in (b, E.extend_E(t, h, i)):
        assert all(out.pairs[v] == T.act(d, g, v) for v in t.verts)


def test_pipeline_pool_stays_near_the_ball(monkeypatch):
    # D2 at i = 2 has 1,942,956 words of length <= 2 over positions 1..3,
    # 35 of which keep the base vertex in the radius-3 ball, and 51,696
    # commensuration shifts per sample: forming either set up front costs
    # millions of calls
    d = D.builtin("D2")
    calls = count_calls(monkeypatch, (T, "act_word"), (W, "delta_mul"))
    x0 = T.base_vertex()
    phi = E.TreeMap(d, {v: v for v in [x0] + T.neighbors(d, x0)})
    _, rep = E.density_pipeline(d, phi, 3, n_samples=4, seed=0)
    assert rep.passed
    assert calls["act_word"] < 100_000 and calls["delta_mul"] < 100_000, calls


# the work of a fixed membership batch: 400 certificates of Delta elements
# on the D0 r6 ball and one density pipeline.  The ceilings are the counts
# of maps evaluated where a certificate reads them and addresses validated
# once per map check; tabulating every element over the ball (92,840 acts)
# or validating every address a walk reaches (716 validations) exceeds them
ACT_CEILING = 66_834
VALIDATE_CEILING = 6


def test_membership_work_counts(d0, ball_d0_6, monkeypatch):
    t = ball_d0_6
    words = W.enumerate_words(d0, 3, [1, 2, 3])[:200]
    phi = rotating_star(d0)
    calls = count_calls(monkeypatch, (T, "act"), (T, "validate_address"))
    for i in (1, 2):
        for w in words:
            h = E.TreeMap.from_element(t, (d0.ident0, w))
            assert E.check_Li(t, h, i).valid
    _, rep = E.density_pipeline(d0, phi, 6, n_samples=2, seed=0)
    assert rep.certificate.valid
    assert calls["act"] <= ACT_CEILING, calls
    assert calls["validate_address"] <= VALIDATE_CEILING, calls
