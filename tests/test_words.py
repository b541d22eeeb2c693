import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (canon_coset_oracle, delta_mul_oracle, gamma0_conj_oracle,
                      gamma_identity, payload_inv_oracle, payload_mul_oracle,
                      twisted_datum)
from nagaotree import datum as D
from nagaotree import tree as T
from nagaotree import words as W


def syllables(d, positions):
    out = []
    for s in range(1, d.k + 1):
        for pay in W.enumerate_payloads(d, positions):
            if pay:
                out.append((s, pay))
    return out


def words_strategy(d, positions=(1, 2), max_len=3):
    syls = syllables(d, list(positions))

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        out = []
        last = 0
        for _ in range(n):
            pool = [s for s in syls if s[0] != last]
            syl = draw(st.sampled_from(pool))
            out.append(syl)
            last = syl[0]
        return tuple(out)

    return build()


def test_mul_identity(d0):
    w = W.generator(1, 1, 1)
    assert W.delta_mul(d0, W.EMPTY, w) == w
    assert W.delta_mul(d0, w, W.EMPTY) == w


def test_mul_inverse_cancellation(d0):
    w = W.generator(1, 1, 1)
    assert W.delta_mul(d0, w, w) == W.EMPTY  # C2 component


def test_cascade_reduction_d0(d0):
    # ((s1,u),(s2,u)) * ((s2,u),(s1,u)) collapses completely
    a = W.delta_mul(d0, W.generator(1, 1, 1), W.generator(2, 1, 1))
    b = W.delta_mul(d0, W.generator(2, 1, 1), W.generator(1, 1, 1))
    assert len(a) == 2 and len(b) == 2
    assert W.delta_mul(d0, a, b) == W.EMPTY
    # cross-check on the tree: the product acts trivially
    x0 = T.base_vertex()
    v = T.act_word(d0, a, T.act_word(d0, b, x0))
    assert v == x0


def test_inv_examples(d0):
    assert W.delta_inv(d0, W.EMPTY) == W.EMPTY
    syl = (1, ((1, 1), (2, 1)))
    assert W.delta_inv(d0, (syl,)) == (syl,)  # C2 components are involutions
    w = W.delta_mul(d0, W.generator(1, 2, 1), W.generator(3, 1, 1))
    assert W.delta_mul(d0, w, W.delta_inv(d0, w)) == W.EMPTY


def test_inv_reverses_with_inverted_payloads(d3):
    w = W.delta_mul(d3, W.generator(1, 2, 1), W.generator(2, 2, 2))
    wi = W.delta_inv(d3, w)
    assert [s for s, _ in wi] == [2, 1]
    assert W.delta_mul(d3, w, wi) == W.EMPTY


def test_conj_by_identity(d0):
    w = W.delta_mul(d0, W.generator(1, 1, 1), W.generator(2, 2, 1))
    assert W.gamma0_conj(d0, d0.ident0, w) == w


def test_conj_matches_coset_permutation_d0(d0):
    # oracle: the coset permutation of gamma = 1 (generator of C3) on the
    # three rays, computed by brute force in Gamma0
    g0 = d0.gamma0
    gamma = 1
    perm = {}
    for s in range(1, 4):
        t = g0.mul(gamma, d0.reps[s - 1])
        sp = next(s2 for s2 in range(1, 4)
                  if any(g0.mul(d0.reps[s2 - 1], h) == t for h in d0.h0.members))
        perm[s] = sp
    assert sorted(perm.values()) == [1, 2, 3] and perm != {1: 1, 2: 2, 3: 3}
    for s in range(1, 4):
        w = W.generator(s, 1, 1)
        cw = W.gamma0_conj(d0, gamma, w)
        assert cw == W.generator(perm[s], 1, 1)


def test_conj_h0_fixes_ray_one_d1(d1):
    # gamma_1 = identity, so H0 elements keep syllables at ray 1 on ray 1,
    # twisting payloads by the (here trivial) action
    h = d1.h0.members[1]
    for j in (1, 2, 3):
        w = W.generator(1, j, 1)
        assert W.gamma0_conj(d1, h, w) == w


def test_conj_is_group_action(d1):
    g0 = d1.gamma0
    w = W.delta_mul(d1, W.generator(1, 1, 1), W.generator(3, 2, 1))
    for a in range(g0.order):
        for b in range(g0.order):
            lhs = W.gamma0_conj(d1, g0.mul(a, b), w)
            rhs = W.gamma0_conj(d1, a, W.gamma0_conj(d1, b, w))
            assert lhs == rhs


def test_gamma_mul_pure_words(d0):
    a = W.generator(1, 1, 1)
    b = W.generator(2, 1, 1)
    g = W.gamma_mul(d0, (0, a), (0, b))
    assert g == (0, W.delta_mul(d0, a, b))


def test_gamma_mul_group_inverse(d1):
    g = (2, W.generator(1, 1, 1))
    gi = W.gamma_inv(d1, g)
    assert W.gamma_mul(d1, g, gi) == gamma_identity(d1)
    assert W.gamma_mul(d1, gi, g) == gamma_identity(d1)


def test_gamma_mul_associative_sampled(d1):
    import random
    rng = random.Random(11)
    pool = [w for w in W.enumerate_words(d1, 3, [1, 2])]
    g0_range = range(d1.gamma0.order)
    for _ in range(100):
        gs = [(rng.choice(g0_range), pool[rng.randrange(len(pool))])
              for _ in range(3)]
        a, b, c = gs
        lhs = W.gamma_mul(d1, W.gamma_mul(d1, a, b), c)
        rhs = W.gamma_mul(d1, a, W.gamma_mul(d1, b, c))
        assert lhs == rhs


def test_canon_coset_examples(d0):
    assert W.canon_coset(d0, W.EMPTY, 3, 1) == W.EMPTY
    # payload at positions 1 and 4, reduced at (i=2, s=1): position 1 dies
    w = ((1, ((1, 1), (4, 1))),)
    got = W.canon_coset(d0, w, 2, 1)
    assert got == ((1, ((4, 1),)),)
    # both words name the same vertex
    v1 = (W.canon_coset(d0, w, 2, 1), 1, 2)
    assert T.act_word(d0, w, T.ray_vertex(2)) == v1
    # a word ending at a different ray is untouched
    w2 = ((2, ((1, 1),)),)
    assert W.canon_coset(d0, w2, 2, 1) == w2


def test_canon_idempotent_and_stabilizer_difference(d0):
    for w in W.enumerate_words(d0, 2, [1, 2, 3]):
        for i in (1, 2):
            for s in (1, 2, 3):
                c = W.canon_coset(d0, w, i, s)
                assert W.canon_coset(d0, c, i, s) == c
                # w = c * sigma with sigma in the stabilizer of x_{i,s}
                sigma = W.delta_mul(d0, W.delta_inv(d0, c), w)
                assert len(sigma) <= 1
                if sigma:
                    ss, pay = sigma[0]
                    assert ss == s and all(j <= i for j, _ in pay)
                # and the stabilizer element indeed fixes the vertex
                xi = T.ray_vertex(i, s)
                assert T.act_word(d0, sigma, xi) == xi


def test_association_order_independent_exhaustive(d0):
    words = W.enumerate_words(d0, 1, [1, 2])
    for a, b, c in itertools.product(words, repeat=3):
        lhs = W.delta_mul(d0, W.delta_mul(d0, a, b), c)
        rhs = W.delta_mul(d0, a, W.delta_mul(d0, b, c))
        assert lhs == rhs


def test_associative_triples_exhaustive_short_words(d0):
    # all triples of words with at most two single-component syllables
    words = W.enumerate_words(d0, 2, [1])
    assert len(words) == 10
    for a, b, c in itertools.product(words, repeat=3):
        assert W.delta_mul(d0, W.delta_mul(d0, a, b), c) \
            == W.delta_mul(d0, a, W.delta_mul(d0, b, c))


def test_four_factor_products_all_association_orders(d0):
    # every bracketing of a length-4 product reduces to the same word
    def orders(xs):
        if len(xs) == 1:
            yield xs[0]
            return
        for k in range(1, len(xs)):
            for left in orders(xs[:k]):
                for right in orders(xs[k:]):
                    yield W.delta_mul(d0, left, right)

    syls = [W.generator(s, 1, 1) for s in (1, 2, 3)]
    for quad in itertools.product(syls, repeat=4):
        results = set(orders(list(quad)))
        assert len(results) == 1


def test_no_word_equals_gamma0_element(d0):
    # free-product words act without fixed points on level-0 vertices
    x0 = T.base_vertex()
    for w in W.enumerate_words(d0, 3, [1, 2]):
        if w:
            assert T.act_word(d0, w, x0) != x0


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mul_associative_property(d3, data):
    a = data.draw(words_strategy(d3))
    b = data.draw(words_strategy(d3))
    c = data.draw(words_strategy(d3))
    lhs = W.delta_mul(d3, W.delta_mul(d3, a, b), c)
    rhs = W.delta_mul(d3, a, W.delta_mul(d3, b, c))
    assert lhs == rhs
    assert W.is_normal_form(d3, lhs)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_inverse_property(d3, data):
    a = data.draw(words_strategy(d3))
    assert W.delta_mul(d3, a, W.delta_inv(d3, a)) == W.EMPTY
    assert W.delta_mul(d3, W.delta_inv(d3, a), a) == W.EMPTY


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canon_is_coset_representative(d3, data):
    w = data.draw(words_strategy(d3))
    i = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 3))
    c = W.canon_coset(d3, w, i, s)
    assert W.canon_coset(d3, c, i, s) == c
    assert T.act_word(d3, w, T.ray_vertex(i, s)) == (c, s, i)


def test_word_json_roundtrip(d3):
    w = W.delta_mul(d3, W.generator(1, 2, 2), W.generator(3, 1, 1))
    assert W.word_from_json(d3, W.word_to_json(w)) == w
    with pytest.raises(ValueError):
        W.word_from_json(d3, [{"s": 1, "t": {}}])


# -- the kernels against their loop-form oracles ---------------------------------

KERNEL_DATA = {name: D.builtin(name) for name in D.BUILTIN_NAMES}
KERNEL_DATA["twisted"] = twisted_datum()
POSITIONS = (1, 2, 3, 4)


@st.composite
def normal_words(draw, d, max_len=4):
    """Random normal-form words: syllables at alternating rays, each with
    one to three ascending positions and non-identity entries."""
    out, last = [], 0
    for _ in range(draw(st.integers(0, max_len))):
        s = draw(st.sampled_from([t for t in range(1, d.k + 1) if t != last]))
        js = sorted(draw(st.sets(st.sampled_from(POSITIONS),
                                 min_size=1, max_size=3)))
        pay = []
        for j in js:
            grp = d.root(j).group
            pay.append((j, draw(st.sampled_from(
                [u for u in range(grp.order) if u != grp.identity]))))
        out.append((s, tuple(pay)))
        last = s
    return tuple(out)


@pytest.mark.parametrize("name", sorted(KERNEL_DATA))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_delta_mul_matches_oracle(name, data):
    d = KERNEL_DATA[name]
    a = data.draw(normal_words(d))
    b = data.draw(normal_words(d))
    assert W.delta_mul(d, a, b) == delta_mul_oracle(d, a, b)
    assert W.is_normal_form(d, W.delta_mul(d, a, b))
    for w in (a, b):
        assert W.delta_mul(d, W.EMPTY, w) == w == W.delta_mul(d, w, W.EMPTY)
    # a product that cancels to the empty word
    a_inv = W.delta_inv(d, a)
    assert W.delta_mul(d, a, a_inv) == W.EMPTY == delta_mul_oracle(d, a, a_inv)
    # the cascade w . (w^-1 . v) walks back through all of w
    inner = W.delta_mul(d, a_inv, b)
    assert inner == delta_mul_oracle(d, a_inv, b)
    assert W.delta_mul(d, a, inner) == b == delta_mul_oracle(d, a, inner)


@pytest.mark.parametrize("name", sorted(KERNEL_DATA))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_payload_kernels_match_oracle(name, data):
    d = KERNEL_DATA[name]
    a = data.draw(normal_words(d, max_len=1))
    b = data.draw(normal_words(d, max_len=1))
    pa = a[0][1] if a else ()
    pb = b[0][1] if b else ()
    assert W.payload_mul(d, pa, pb) == payload_mul_oracle(d, pa, pb)
    assert W.payload_inv(d, pa) == payload_inv_oracle(d, pa)
    assert W.payload_mul(d, pa, W.payload_inv(d, pa)) == ()


@pytest.mark.parametrize("name", sorted(KERNEL_DATA))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canon_coset_matches_oracle(name, data):
    d = KERNEL_DATA[name]
    w = data.draw(normal_words(d))
    i = data.draw(st.integers(0, max(POSITIONS) + 1))
    s = data.draw(st.integers(1, d.k))
    if w and data.draw(st.booleans()):
        s = w[-1][0]  # the last syllable sits at the stabilizer's ray
    assert W.canon_coset(d, w, i, s) == canon_coset_oracle(d, w, i, s)


@pytest.mark.parametrize("name", sorted(KERNEL_DATA))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gamma_kernels_match_oracle(name, data):
    d = KERNEL_DATA[name]
    g0 = data.draw(st.integers(0, d.gamma0.order - 1))
    gp = data.draw(st.integers(0, d.gamma0.order - 1))
    w = data.draw(normal_words(d))
    v = data.draw(normal_words(d))
    assert W.gamma0_conj(d, g0, w) == gamma0_conj_oracle(d, g0, w)
    expect = (d.gamma0.mul(g0, gp),
              delta_mul_oracle(d, gamma0_conj_oracle(d, d.gamma0.inv(gp), w), v))
    assert W.gamma_mul(d, (g0, w), (gp, v)) == expect
