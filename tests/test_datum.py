import pytest

from conftest import gamma_i, inversion_action
from nagaotree import algebra as A
from nagaotree import datum as D
from nagaotree import words as W
from nagaotree.errors import (BadAction, BadSchedule, IndexTooSmall,
                              NotSubgroup, RootGroupTooSmall, UnknownName)


def test_d0_smallest_admissible(d0):
    assert d0.k == 3
    assert [d0.q(i) for i in range(5)] == [2, 2, 2, 2, 2]
    assert d0.profile.biregular


def test_d1_classical_numerics(d1):
    # 3-regular: valency q + 1 with q = 2 at every level
    assert d1.k == 3
    assert all(d1.profile.degree(i) == 3 for i in range(6))
    assert d1.h0.order == 2


def test_d2_valency_seven(d2):
    assert d2.k == 7
    assert d2.gamma0.order == 42
    assert all(d2.q(i) == 6 for i in range(8))
    assert all(d2.profile.degree(i) == 7 for i in range(8))
    # root groups are cyclic of order 6 (2-part times 3-part)
    assert d2.root(1).group.order == 6


def test_d3_alternating_schedule(d3):
    assert [d3.q(i) for i in range(1, 7)] == [2, 3, 2, 3, 2, 3]
    assert d3.profile.degree(1) == 3 and d3.profile.degree(2) == 4
    assert not d3.profile.biregular
    assert d3.profile.first_period_two_defect() == 0


def test_index_too_small_rejected():
    g = A.cyclic_group(2)
    h = A.trivial_subgroup(g)
    c2 = A.cyclic_group(2)
    rd = D.RootData(group=c2, action=A.trivial_action(h, c2))
    with pytest.raises(IndexTooSmall):
        D.NagaoDatum(g, h, (), (rd,))


def test_root_group_too_small_rejected():
    g = A.cyclic_group(3)
    h = A.trivial_subgroup(g)
    c1 = A.cyclic_group(1)
    rd = D.RootData(group=c1, action=A.trivial_action(h, c1))
    with pytest.raises(RootGroupTooSmall):
        D.NagaoDatum(g, h, (), (rd,))


def test_empty_schedule_rejected():
    g = A.cyclic_group(3)
    h = A.trivial_subgroup(g)
    with pytest.raises(BadSchedule):
        D.NagaoDatum(g, h, (), ())


def test_bad_action_rejected():
    g = A.symmetric_group(3)
    h = A.generated_subgroup(g, [1])
    c4 = A.cyclic_group(4)
    rows = {m: tuple(range(4)) for m in h.members}
    rows[1] = (1, 0, 3, 2)  # moves the identity: not an automorphism
    bad = A.GroupAction(acting=h, target=c4, rows=rows)
    with pytest.raises(BadAction):
        D.NagaoDatum(g, h, (), (D.RootData(group=c4, action=bad),))


def test_hand_built_non_subgroup_rejected():
    # {0, 1} is not a subgroup of C6, though its translates partition C6
    g = A.cyclic_group(6)
    c2 = A.cyclic_group(2)
    obj = {"gamma0": g.to_json(), "h0": [0, 1],
           "roots": {"period": [{"group": c2.to_json()}]}}
    with pytest.raises(NotSubgroup) as loaded:
        D.datum_from_json(obj)
    h = A.SubgroupHandle(parent=g, members=(0, 1))
    rd = D.RootData(group=c2, action=A.trivial_action(h, c2))
    with pytest.raises(NotSubgroup) as built:
        D.NagaoDatum(g, h, (), (rd,))
    assert str(built.value) == str(loaded.value) == (
        "member 1 has inverse outside the set")


def test_unknown_builtin():
    with pytest.raises(UnknownName):
        D.builtin("D9")


def test_gamma_i_d0_is_elementary_abelian(d0):
    vg = gamma_i(d0, 2)
    g = vg.group
    assert g.order == 4
    assert all(g.mul(x, x) == g.identity for x in range(4))
    assert all(g.mul(a, b) == g.mul(b, a) for a in range(4) for b in range(4))


def test_gamma_i_d1_order(d1):
    vg = gamma_i(d1, 1)
    assert vg.group.order == 4
    # contains embedded copies of H0 and U1
    h_img = set(vg.h0_embed.values())
    u_img = set(vg.root_embeds[0])
    assert len(h_img) == 2 and len(u_img) == 2
    assert h_img & u_img == {vg.group.identity}


def test_gamma_i_d2_order_216(d2):
    vg = gamma_i(d2, 2)
    assert vg.group.order == 6 * 6 * 6


@pytest.mark.parametrize("name,max_i", [("D0", 4), ("D1", 4), ("D3", 4), ("D2", 3)])
def test_unique_factorization(name, max_i):
    # every element factors uniquely as h * u_1 * ... * u_i
    d = D.builtin(name)
    for i in range(1, max_i + 1):
        vg = gamma_i(d, i)
        g = vg.group
        seen = set()
        count = 0
        import itertools
        ranges = [list(d.h0.members)] + [
            range(d.root(j).group.order) for j in range(1, i + 1)
        ]
        for combo in itertools.product(*ranges):
            x = vg.h0_embed[combo[0]]
            for j, u in enumerate(combo[1:], start=1):
                x = g.mul(x, vg.embed_root(j, u))
            seen.add(x)
            count += 1
        assert count == g.order and len(seen) == g.order


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3"])
def test_root_factors_commute_pairwise(name):
    # the direct-splitting condition at the datum level
    d = D.builtin(name)
    vg = gamma_i(d, 3)
    g = vg.group
    for j1 in range(1, 4):
        for j2 in range(j1 + 1, 4):
            for u1 in vg.root_embeds[j1 - 1]:
                for u2 in vg.root_embeds[j2 - 1]:
                    assert g.mul(u1, u2) == g.mul(u2, u1)


def test_h0_embedding_is_homomorphic(d1):
    vg = gamma_i(d1, 2)
    g0 = d1.gamma0
    for a in d1.h0.members:
        for b in d1.h0.members:
            assert vg.group.mul(vg.h0_embed[a], vg.h0_embed[b]) \
                == vg.h0_embed[g0.mul(a, b)]


def test_datum_json_roundtrip(d3):
    obj = D.datum_to_json(d3)
    d = D.datum_from_json(obj)
    assert d.k == d3.k
    assert [d.q(i) for i in range(8)] == [d3.q(i) for i in range(8)]
    assert d.reps == d3.reps


def _twisted_datum():
    # C2 acting on C3 by inversion as the root schedule
    g = A.symmetric_group(3)
    h = A.generated_subgroup(g, [1])
    c3 = A.cyclic_group(3)
    act = inversion_action(h, c3)
    return D.NagaoDatum(g, h, (), (D.RootData(group=c3, action=act),),
                        name="twisted")


def test_nontrivial_action_datum_accepted():
    d = _twisted_datum()
    h = d.h0
    act = d.root(1).action
    assert d.q(1) == 3
    vg = gamma_i(d, 1)
    assert vg.group.order == 6
    # h u h^-1 = theta_h(u) holds inside the product table
    for hm in h.members:
        for u in range(3):
            g, tab = vg.h0_embed[hm], vg.group.table
            lhs = tab[tab[g][vg.embed_root(1, u)]][vg.group.inverse[g]]
            assert lhs == vg.embed_root(1, act.rows[hm][u])


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("name", ["D1", "D2", "D3", "twisted"])
def test_gamma_i_table_matches_gamma_mul(name, i):
    # the table element (h, u_1, ..., u_i) is h * u in Gamma, with u the
    # single ray-1 syllable of payload ((1, u_1), ..., (i, u_i)); the table
    # product must be the library product
    d = _twisted_datum() if name == "twisted" else D.builtin(name)
    vg = gamma_i(d, i)
    radices = [d.h0.order] + [d.q(j) for j in range(1, i + 1)]

    def element(x):
        digits = []
        for r in radices:
            digits.append(x % r)
            x //= r
        pay = tuple((j, u) for j, u in enumerate(digits[1:], start=1)
                    if u != d.root(j).group.identity)
        return (d.h0.members[digits[0]], W.syllable_word(1, pay))

    elems = [element(x) for x in range(vg.group.order)]
    assert len(set(elems)) == vg.group.order
    for a, ea in enumerate(elems):
        for b, eb in enumerate(elems):
            assert W.gamma_mul(d, ea, eb) == elems[vg.group.mul(a, b)]
