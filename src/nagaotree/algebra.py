"""Exact arithmetic for small finite groups given by multiplication tables.

Elements are indices 0..order-1.  Every value is immutable after
construction, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import NoIdentity, NoInverse, NotAssociative, NotSubgroup

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as an explicit multiplication table."""

    order: int
    table: Table
    identity: int
    inverse: tuple[int, ...] = field(repr=False)
    name: str = ""

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}


def _find_identity(table: Table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NoIdentity("table has no two-sided identity")


def _find_inverses(table: Table, identity: int) -> tuple[int, ...]:
    n = len(table)
    inv = []
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inv.append(b)
                break
        else:
            raise NoInverse(a)
    return tuple(inv)


def build_group(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    Validation is exhaustive (full triple loop for associativity), which is
    practical for the orders this package deals with (a few hundred at most).
    """
    n = len(table)
    tab: Table = tuple(tuple(int(x) for x in row) for row in table)
    for row in tab:
        if len(row) != n or any(x < 0 or x >= n for x in row):
            raise NoIdentity(f"table is not a square array over 0..{n - 1}")
    identity = _find_identity(tab)
    inverse = _find_inverses(tab, identity)
    rng = range(n)
    for a in rng:
        ta = tab[a]
        for b in rng:
            ab = ta[b]
            tab_ab = tab[ab]
            tb = tab[b]
            for c in rng:
                if tab_ab[c] != ta[tb[c]]:
                    raise NotAssociative(a, b, c)
    return FiniteGroup(order=n, table=tab, identity=identity, inverse=inverse, name=name)


def trusted_group(table: Table, identity: int, name: str = "") -> FiniteGroup:
    """Wrap a table known to be a group (e.g. built as a semidirect product).

    Skips the cubic associativity sweep; identity and inverses are still
    derived and checked.
    """
    if not all(table[identity][x] == x and table[x][identity] == x for x in range(len(table))):
        raise NoIdentity("claimed identity is not two-sided")
    inverse = _find_inverses(table, identity)
    return FiniteGroup(order=len(table), table=table, identity=identity, inverse=inverse, name=name)


@dataclass(frozen=True)
class SubgroupHandle:
    """A subgroup of `parent`, stored as a sorted element-index set."""

    parent: FiniteGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


def subgroup(parent: FiniteGroup, members: Iterable[int]) -> SubgroupHandle:
    """Validate closure, identity and inverses, then wrap the member set."""
    ms = tuple(sorted(set(int(m) for m in members)))
    if any(not 0 <= m < parent.order for m in ms):
        raise NotSubgroup(f"members must lie in 0..{parent.order - 1}")
    if parent.identity not in ms:
        raise NotSubgroup("member set does not contain the identity")
    mset = set(ms)
    for a in ms:
        if parent.inv(a) not in mset:
            raise NotSubgroup(f"member {a} has inverse outside the set")
        for b in ms:
            if parent.mul(a, b) not in mset:
                raise NotSubgroup(f"members {a},{b} multiply outside the set")
    return SubgroupHandle(parent=parent, members=ms)


def trivial_subgroup(parent: FiniteGroup) -> SubgroupHandle:
    return SubgroupHandle(parent=parent, members=(parent.identity,))


def generated_subgroup(parent: FiniteGroup, gens: Iterable[int]) -> SubgroupHandle:
    """Closure of the identity under right multiplication by the generators:
    in a finite group this is the generated subgroup."""
    gens = list(gens)
    elems = {parent.identity}
    frontier = [parent.identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            p = parent.mul(a, g)
            if p not in elems:
                elems.add(p)
                frontier.append(p)
    return SubgroupHandle(parent=parent, members=tuple(sorted(elems)))


def cosets(group: FiniteGroup, sub: SubgroupHandle
           ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Ordered left-coset representatives of `sub` in `group`, and for each
    g the unique (s, h) with g = reps[s] * h, h in the subgroup.

    The first representative is the identity; every other coset is
    represented by its minimal element index, so the output is canonical.
    `s` is the 0-based position in `reps`.
    """
    if sub.parent is not group and sub.parent != group:
        raise NotSubgroup("subgroup handle belongs to a different parent group")
    if group.order % sub.order != 0:
        raise NotSubgroup("subgroup order does not divide the group order")
    decomp: list = [None] * group.order
    reps: list[int] = []
    for g in (group.identity, *range(group.order)):
        if decomp[g] is not None:
            continue
        for h in sub.members:
            decomp[group.mul(g, h)] = (len(reps), h)
        reps.append(g)
    if len(reps) * sub.order != group.order:
        raise NotSubgroup("cosets do not partition the group")
    return tuple(reps), tuple(decomp)


@dataclass(frozen=True)
class GroupAction:
    """An action of the subgroup `acting` on `target` by automorphisms.

    `rows` maps each acting element (parent-group index) to the tuple of
    images of target elements, i.e. rows[h][u] = theta_h(u).  The action is
    a left action: theta_{h h'} = theta_h o theta_{h'}.
    """

    acting: SubgroupHandle
    target: FiniteGroup
    rows: dict[int, tuple[int, ...]]

    def to_json(self) -> dict:
        return {str(h): list(r) for h, r in sorted(self.rows.items())}


def trivial_action(acting: SubgroupHandle, target: FiniteGroup) -> GroupAction:
    ident = tuple(range(target.order))
    return GroupAction(acting=acting, target=target,
                       rows={h: ident for h in acting.members})


def validate_action(action: GroupAction) -> list[dict]:
    """Check that every acting element induces an automorphism of the target
    and that the assignment h -> theta_h is a homomorphism.

    The violations are returned, empty for a valid action, never raised.
    A missing row, or one of the wrong length or with images outside the
    target, is a `row-shape` violation and takes no part in the other
    checks.
    """
    violations: list[dict] = []
    tgt = action.target
    H = action.acting
    n = tgt.order
    rows = {h: r for h, r in action.rows.items()
            if len(r) == n and all(0 <= u < n for u in r)}
    for h in H.members:
        row = rows.get(h)
        if row is None:
            violations.append({"rule": "row-shape", "h": h})
            continue
        if sorted(row) != list(range(n)):
            violations.append({"rule": "bijection", "h": h})
        if row[tgt.identity] != tgt.identity:
            violations.append({"rule": "identity-fixed", "h": h,
                               "witness": {"u": tgt.identity, "image": row[tgt.identity]}})
        for u in range(n):
            for v in range(n):
                if row[tgt.mul(u, v)] != tgt.mul(row[u], row[v]):
                    violations.append({"rule": "homomorphism", "h": h,
                                       "witness": {"u": u, "v": v}})
                    break
            else:
                continue
            break
    if H.parent.identity in action.rows:
        if action.rows[H.parent.identity] != tuple(range(n)):
            violations.append({"rule": "identity-acts-trivially"})
    else:
        violations.append({"rule": "identity-row-missing"})
    for h1 in H.members:
        r1 = rows.get(h1)
        if r1 is None:
            continue
        for h2 in H.members:
            r2 = rows.get(h2)
            r12 = rows.get(H.parent.mul(h1, h2))
            if r2 is None or r12 is None:
                continue
            if any(r12[u] != r1[r2[u]] for u in range(n)):
                violations.append({"rule": "composition", "h1": h1, "h2": h2})
                break
    return violations


# -- stock groups -------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return trusted_group(table, 0, name=f"C{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; elements enumerated lexicographically, identity first.

    Composition convention: (p * q)(x) = p(q(x)).
    """
    import itertools

    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in perms)
        for p in perms
    )
    return trusted_group(table, 0, name=f"S{n}")


def affine_group(p: int) -> FiniteGroup:
    """AGL(1,p): maps x -> a*x + b over F_p, a nonzero.

    Element (a, b) gets index (a-1)*p + b, so the identity (1, 0) is 0.
    Composition: (a,b) o (a',b') : x -> a(a'x + b') + b = (aa', ab' + b).
    """
    elems = [(a, b) for a in range(1, p) for b in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(
        tuple(index[((a * a2) % p, (a * b2 + b) % p)] for (a2, b2) in elems)
        for (a, b) in elems
    )
    return trusted_group(table, 0, name=f"AGL(1,{p})")


def group_from_json(obj: dict, name: str = "") -> FiniteGroup:
    return build_group(obj["table"], name=name or obj.get("name", ""))


def action_from_json(obj: dict, acting: SubgroupHandle, target: FiniteGroup) -> GroupAction:
    rows = {int(h): tuple(int(x) for x in r) for h, r in obj.items()}
    return GroupAction(acting=acting, target=target, rows=rows)
