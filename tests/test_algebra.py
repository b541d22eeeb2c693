import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_cosets, inversion_action, perm_group_closure,
                      perm_table)
from nagaotree import algebra as A
from nagaotree.errors import NoIdentity, NoInverse, NotAssociative, NotSubgroup


def test_trivial_group():
    g = A.build_group([[0]])
    assert g.order == 1 and g.identity == 0


def test_c2_from_table():
    g = A.build_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv(1) == 1


def test_s3_from_permutation_closure():
    # oracle: generate S3 from (0 1) and (0 1 2) by brute-force closure
    elems = perm_group_closure([(1, 0, 2), (1, 2, 0)])
    assert len(elems) == 6
    table = perm_table(elems)
    g = A.build_group(table, name="S3-oracle")
    assert g.order == 6
    # same multiplication as the stock constructor (same element order:
    # lexicographic permutations with identity first)
    stock = A.symmetric_group(3)
    assert g.table == stock.table


def test_build_group_rejects_bad_tables():
    with pytest.raises(NotAssociative) as exc:
        # random-looking latin square that is not a group
        A.build_group([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
    assert len(exc.value.triple) == 3
    with pytest.raises(NoIdentity):
        A.build_group([[1, 1], [1, 1]])  # constant table: no identity
    with pytest.raises((NoInverse, NotAssociative)):
        A.build_group([[0, 1, 2], [1, 1, 1], [2, 1, 0]])


def test_coset_reps_trivial_subgroup():
    g = A.cyclic_group(3)
    reps = A.cosets(g, A.trivial_subgroup(g))[0]
    assert reps == (0, 1, 2)


def test_coset_reps_s3_mod_c2():
    g = A.symmetric_group(3)
    h = A.generated_subgroup(g, [1])   # a transposition
    assert h.members == (0, 1)
    reps = A.cosets(g, h)[0]
    assert len(reps) == 3 and reps[0] == g.identity
    # oracle: brute-force coset enumeration
    oracle = brute_cosets(g.order, g.table, h.members)
    assert len(oracle) == 3
    # reps hit each brute-force coset exactly once
    hit = [next(i for i, cs in enumerate(oracle) if r in cs) for r in reps]
    assert sorted(hit) == [0, 1, 2]


def test_coset_reps_affine_42_mod_stabilizer():
    g = A.affine_group(7)
    assert g.order == 42
    h = A.subgroup(g, [(a - 1) * 7 for a in range(1, 7)])
    assert h.order == 6
    reps = A.cosets(g, h)[0]
    assert len(reps) == 7 and reps[0] == 0
    oracle = brute_cosets(g.order, g.table, h.members)
    assert len(oracle) == 7


def test_coset_refusals():
    with pytest.raises(NotSubgroup, match="^subgroup handle belongs to a "
                                          "different parent group$"):
        A.cosets(A.cyclic_group(3), A.trivial_subgroup(A.cyclic_group(4)))
    c6 = A.cyclic_group(6)
    with pytest.raises(NotSubgroup, match="^subgroup order does not divide "
                                          "the group order$"):
        A.cosets(c6, A.SubgroupHandle(parent=c6, members=(0, 1, 2, 3)))


@pytest.mark.parametrize("name", ["D0", "D1", "D2", "D3"])
def test_coset_translates_enumerate_group(name):
    from nagaotree import datum as D
    d = D.builtin(name)
    g, h = d.gamma0, d.h0
    seen = sorted(g.mul(r, m) for r in d.reps for m in h.members)
    assert seen == list(range(g.order))


def test_not_subgroup_detected():
    g = A.cyclic_group(4)
    with pytest.raises(NotSubgroup):
        A.subgroup(g, [0, 1])  # not closed
    with pytest.raises(NotSubgroup):
        A.subgroup(g, [1, 2, 3])  # no identity


def test_subgroup_rejects_out_of_range_members():
    with pytest.raises(NotSubgroup):
        A.subgroup(A.cyclic_group(3), [0, 7])
    with pytest.raises(NotSubgroup):
        A.subgroup(A.cyclic_group(3), [-1, 0])


@pytest.mark.parametrize("row", [(0,), (0, 5), (0, -1), (0, 1, 1)])
def test_validate_action_collects_malformed_rows(row):
    # a row of the wrong length or with images outside the target is
    # recorded as row-shape and kept out of the other checks, never raised
    c2 = A.cyclic_group(2)
    h = A.subgroup(c2, [0, 1])
    rows = {0: (0, 1), 1: row}
    rep = A.validate_action(A.GroupAction(acting=h, target=c2, rows=rows))
    assert rep == [{"rule": "row-shape", "h": 1}]


def test_validate_action_trivial():
    g = A.cyclic_group(5)
    h = A.trivial_subgroup(g)
    u = A.cyclic_group(3)
    assert A.validate_action(A.trivial_action(h, u)) == []


def test_validate_action_inversion_on_c3():
    c2 = A.cyclic_group(2)
    h = A.subgroup(c2, [0, 1])
    u = A.cyclic_group(3)
    act = inversion_action(h, u)
    assert A.validate_action(act) == []
    assert act.rows[1][1] == 2


def test_validate_action_detects_non_homomorphism():
    c2 = A.cyclic_group(2)
    h = A.subgroup(c2, [0, 1])
    u = A.cyclic_group(4)
    rows = {0: (0, 1, 2, 3), 1: (1, 0, 3, 2)}  # swaps identity: not a hom
    rep = A.validate_action(A.GroupAction(acting=h, target=u, rows=rows))
    assert rep
    assert any(v["rule"] in ("identity-fixed", "homomorphism")
               for v in rep)


def test_action_composition_law_exhaustive():
    # theta_{h h'} = theta_h o theta_{h'} over a nontrivial action
    c2 = A.cyclic_group(2)
    h = A.subgroup(c2, [0, 1])
    u = A.cyclic_group(6)
    act = inversion_action(h, u)
    for h1 in h.members:
        for h2 in h.members:
            h12 = c2.mul(h1, h2)
            for x in range(u.order):
                assert act.rows[h12][x] == act.rows[h1][act.rows[h2][x]]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), k=st.integers(1, 12))
def test_cyclic_coset_partition_property(n, k):
    g = A.cyclic_group(n)
    h = A.generated_subgroup(g, [k % n])
    reps = A.cosets(g, h)[0]
    assert len(reps) * h.order == g.order
    cover = {g.mul(r, m) for r in reps for m in h.members}
    assert cover == set(range(n))


def test_group_json_roundtrip():
    g = A.symmetric_group(3)
    g2 = A.group_from_json(g.to_json())
    assert g2.table == g.table and g2.identity == g.identity
