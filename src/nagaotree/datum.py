"""Directly split Nagao data: the group-theoretic seed of the whole tree.

A datum consists of a finite group `gamma0`, a subgroup `h0` of index k >= 3,
and an eventually periodic schedule of root groups U_j (j >= 1), each with an
action of h0 by automorphisms.  Everything downstream (words, tree, horoballs)
is derived from this object.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra
from .algebra import FiniteGroup, GroupAction, SubgroupHandle
from .errors import (BadAction, BadSchedule, IndexTooSmall, NotSubgroup,
                     RootGroupTooSmall, UnknownName)

BUILTIN_NAMES = ("D0", "D1", "D2", "D3")


@dataclass(frozen=True)
class RootData:
    """One root group U_j together with the h0-action on it."""

    group: FiniteGroup
    action: GroupAction

    @property
    def q(self) -> int:
        return self.group.order


def _schedule_entry(prefix: tuple, period: tuple, j: int):
    """Entry j >= 1 of the schedule prefix, period, period, ..."""
    if j <= len(prefix):
        return prefix[j - 1]
    return period[(j - 1 - len(prefix)) % len(period)]


@dataclass(frozen=True)
class LevelProfile:
    """The degree schedule q_i, with q_0 = k - 1 and q_i = |U_i| for i >= 1."""

    k: int
    q_prefix: tuple[int, ...]
    q_period: tuple[int, ...]

    def q(self, i: int) -> int:
        if i == 0:
            return self.k - 1
        return _schedule_entry(self.q_prefix, self.q_period, i)

    def degree(self, level: int) -> int:
        return self.k if level == 0 else self.q(level) + 1

    @property
    def biregular(self) -> bool:
        """The degree sequence is constant on each level parity class."""
        return self.first_period_two_defect() is None

    def first_period_two_defect(self) -> int | None:
        """Smallest l with q_l != q_{l+2}, or None when biregular."""
        # eventual periodicity bounds the search
        horizon = len(self.q_prefix) + 2 * len(self.q_period) + 3
        for l in range(horizon):
            if self.q(l) != self.q(l + 2):
                return l
        return None


class _ByPosition(dict):
    """Per-position state of a datum: entry j is fill(j), computed on the
    first lookup of j and kept for the life of the datum."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, j):
        val = self[j] = self.fill(j)
        return val


class NagaoDatum:
    """Validated directly split datum with precomputed navigation tables."""

    def __init__(self, gamma0: FiniteGroup, h0: SubgroupHandle,
                 prefix: tuple[RootData, ...], period: tuple[RootData, ...],
                 name: str = ""):
        self.gamma0 = gamma0
        self.h0 = h0
        self.prefix = prefix
        self.period = period
        self.name = name

        _check_datum(gamma0, h0, prefix, period)

        # decomp[g] = (s, h) with g = reps[s] * h, h in h0; s is 0-based
        self.reps, decomp = algebra.cosets(gamma0, h0)
        self.k = len(self.reps)
        if self.k < 3:
            raise IndexTooSmall(f"index [Gamma0:H0] = {self.k} < 3 (need q_0 >= 2)")
        self.profile = LevelProfile(
            k=self.k,
            q_prefix=tuple(r.q for r in prefix),
            q_period=tuple(r.q for r in period),
        )
        # nav[g][s-1] = (s', h) with g * gamma_s = gamma_{s'} * h, h in h0,
        # for 1-based ray indices s and s'; gamma_s = reps[s-1]
        self.nav = tuple(
            tuple((s + 1, h) for s, h in
                  (decomp[gamma0.mul(g, r)] for r in self.reps))
            for g in range(gamma0.order)
        )
        self.ident0 = gamma0.identity
        # root_tables[j] = (table, identity, inverse, action rows) of U_j,
        # read straight off the schedule slot on first use of position j
        self.root_tables = _ByPosition(self._root_tables)

    # -- root group schedule -------------------------------------------------

    def root(self, j: int) -> RootData:
        if j < 1:
            raise BadSchedule(f"root groups are indexed from 1, got {j}")
        return _schedule_entry(self.prefix, self.period, j)

    def _root_tables(self, j: int) -> tuple:
        rd = self.root(j)
        return rd.group.table, rd.group.identity, rd.group.inverse, rd.action.rows

    def q(self, i: int) -> int:
        return self.profile.q(i)

    def __repr__(self) -> str:
        return f"NagaoDatum({self.name or 'custom'}, k={self.k})"


def _check_datum(gamma0, h0, prefix, period):
    if h0.parent is not gamma0 and h0.parent != gamma0:
        raise NotSubgroup("h0 must be a subgroup handle of gamma0")
    # a hand-built handle is refused as the loader refuses its member list
    algebra.subgroup(gamma0, h0.members)
    if not period and not prefix:
        raise BadSchedule("root group schedule is empty")
    if not period:
        raise BadSchedule("schedule must be eventually periodic: empty period")
    for j, rd in enumerate(list(prefix) + list(period), start=1):
        if rd.group.order < 2:
            raise RootGroupTooSmall(f"|U| = {rd.group.order} < 2 in schedule slot {j}")
        if rd.action.target is not rd.group and rd.action.target != rd.group:
            raise BadAction(f"schedule slot {j}: action target is not the root group")
        violations = algebra.validate_action(rd.action)
        if violations:
            raise BadAction(f"schedule slot {j}: {violations[:3]}")


def _const_schedule(h0: SubgroupHandle, group: FiniteGroup) -> tuple[RootData, ...]:
    return (RootData(group=group, action=algebra.trivial_action(h0, group)),)


def builtin(name: str) -> NagaoDatum:
    """The four stock data used throughout the test suites.

    D0: Gamma0 = C3, H0 = 1, U_j = C2            (3-regular tree)
    D1: Gamma0 = S3, H0 = C2, U_j = C2           (3-regular, Nagao numerics q=2)
    D2: Gamma0 = AGL(1,7), H0 = C6, U_j = C6     (7-regular)
    D3: Gamma0 = C3, H0 = 1, U_j = C2/C3 alternating (non-biregular)
    """
    if name == "D0":
        g0 = algebra.cyclic_group(3)
        h0 = algebra.trivial_subgroup(g0)
        return NagaoDatum(g0, h0, (), _const_schedule(h0, algebra.cyclic_group(2)),
                          name="D0")
    if name == "D1":
        g0 = algebra.symmetric_group(3)
        # the transposition fixing 0 (lexicographic index 1) generates H0
        h0 = algebra.generated_subgroup(g0, [1])
        return NagaoDatum(g0, h0, (), _const_schedule(h0, algebra.cyclic_group(2)),
                          name="D1")
    if name == "D2":
        g0 = algebra.affine_group(7)
        # point stabilizer of 0 in the affine line: the maps x -> a*x
        h0 = algebra.subgroup(g0, [(a - 1) * 7 for a in range(1, 7)])
        return NagaoDatum(g0, h0, (), _const_schedule(h0, algebra.cyclic_group(6)),
                          name="D2")
    if name == "D3":
        g0 = algebra.cyclic_group(3)
        h0 = algebra.trivial_subgroup(g0)
        # odd slots C2, even slots C3
        period = (_const_schedule(h0, algebra.cyclic_group(2))
                  + _const_schedule(h0, algebra.cyclic_group(3)))
        return NagaoDatum(g0, h0, (), period, name="D3")
    raise UnknownName(f"unknown builtin datum {name!r}; expected one of {BUILTIN_NAMES}")


def datum_from_json(obj: dict, name: str = "") -> NagaoDatum:
    """Parse and validate the datum file format.

    {"gamma0": {"order": n, "table": [[..]]},
     "h0": [member indices],
     "roots": {"prefix": [{"group": .., "action": {..}} ..], "period": [..]}}

    Actions default to trivial when omitted.
    """
    g0 = algebra.group_from_json(obj["gamma0"], name="gamma0")
    h0 = algebra.subgroup(g0, obj["h0"])

    def parse_root(slot) -> RootData:
        grp = algebra.group_from_json(slot["group"])
        if "action" in slot and slot["action"] is not None:
            act = algebra.action_from_json(slot["action"], h0, grp)
        else:
            act = algebra.trivial_action(h0, grp)
        return RootData(group=grp, action=act)

    roots = obj.get("roots", {})
    prefix = tuple(parse_root(s) for s in roots.get("prefix", []))
    period = tuple(parse_root(s) for s in roots.get("period", []))
    return NagaoDatum(g0, h0, prefix, period, name=name or obj.get("name", ""))


def datum_to_json(d: NagaoDatum) -> dict:
    return {
        "name": d.name,
        "gamma0": d.gamma0.to_json(),
        "h0": list(d.h0.members),
        "roots": {
            "prefix": [{"group": r.group.to_json(), "action": r.action.to_json()}
                       for r in d.prefix],
            "period": [{"group": r.group.to_json(), "action": r.action.to_json()}
                       for r in d.period],
        },
    }
