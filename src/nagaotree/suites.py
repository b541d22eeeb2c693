"""Named invariant suites over a datum, shared by the CLI and the tests.

Each suite returns a SuiteReport with one entry per failed instance;
reports are deterministic functions of (datum, radius, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import extension as E
from . import horo as H
from . import transport as TR
from . import tree as T
from . import twincodist as TC
from . import words as W
from .datum import NagaoDatum
from .serialize import Tally

@dataclass
class SuiteReport(Tally):
    suite: str
    info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"suite": self.suite, **super().to_json(), "info": self.info}


def suite_degrees(d: NagaoDatum, radius: int) -> SuiteReport:
    """Every interior vertex has degree k at level 0 and q_i + 1 above."""
    rep = SuiteReport("degrees")
    t = T.ball(d, T.base_vertex(), radius)
    for vid in t.interior_ids():
        lv = t.level(vid)
        want = d.profile.degree(lv)
        got = t.degree(vid)
        rep.count(None if got == want else
                  {"vertex": str(t.verts[vid]), "level": lv,
                   "degree": got, "expected": want})
    rep.info["interior"] = rep.checked
    rep.info["ball"] = t.n
    return rep


def suite_transitivity(d: NagaoDatum, radius: int) -> SuiteReport:
    """Simple transitivity of U_i x ... x U_j on the down-sets M_{i,j}.

    M_{i,j} is the set of level-(i-1) vertices at distance j - i + 1 from
    the standard ray vertex x_j; the product of root groups between i and j
    must act on it freely and transitively.  Checked for j <= 3.
    """
    rep = SuiteReport("transitivity")
    t = T.ball(d, T.base_vertex(), radius)
    # M_{i,j} reaches distance 2j - i + 1 from the base vertex; only spans
    # fully visible in the ball are checked
    max_j = min(3, radius // 2)
    rep.info["max_j"] = max_j
    for j in range(1, max_j + 1):
        # the ball is a subtree, so in-ball BFS depth is tree distance
        dist_j = T.bfs_depths([t.vid(T.ray_vertex(j))], t.adj.__getitem__,
                              max_depth=j)
        for i in range(1, j + 1):
            span = j - i + 1
            m_set = {t.verts[vid] for vid, k in dist_j.items()
                     if k == span and t.level(vid) == i - 1}
            expected = 1
            for r in range(i, j + 1):
                expected *= d.q(r)
            if len(m_set) != expected:
                rep.count({"instance": f"M_{i},{j}", "size": len(m_set),
                           "expected": expected})
                continue
            rep.count()
            base = T.ray_vertex(i - 1)
            orbit = {T.act_word(d, W.syllable_word(1, pay), base)
                     for pay in W.enumerate_payloads(d, list(range(i, j + 1)))}
            rep.count(None if orbit == m_set else
                      {"instance": f"M_{i},{j}", "orbit": len(orbit),
                       "expected": expected, "free_and_transitive": False})
    return rep


def suite_horoball(d: NagaoDatum, radius: int, max_i: int = 3) -> SuiteReport:
    """Every root element at level i fixes the standard level-i horoball
    pointwise inside the ball."""
    rep = SuiteReport("horoball")
    t = T.ball(d, T.base_vertex(), radius)
    for i in range(1, max_i + 1):
        xi = T.ray_vertex(i)
        if xi not in t:
            continue
        hb = H.horoball(t, xi)
        grp = d.root(i).group
        for u in range(grp.order):
            if u == grp.identity:
                continue
            g = (d.ident0, W.generator(1, i, u))
            moved = [t.verts[vid] for vid in hb.vertex_ids
                     if T.act(d, g, t.verts[vid]) != t.verts[vid]]
            rep.count({"i": i, "u": u, "moved": str(moved[0]),
                       "count": len(moved)} if moved else None)
    rep.info["max_i"] = max_i
    return rep


def suite_transport(d: NagaoDatum, radius: int, levels=(1, 2),
                    samples: int = 0, seed: int = 0) -> SuiteReport:
    """Transporter calculation rules (see transport.verify_transport)."""
    rep = SuiteReport("transport")
    tr = TR.verify_transport(d, radius, levels=levels, samples=samples, seed=seed)
    rep.checked = tr.total
    rep.failures = tr.failures
    rep.info["levels"] = list(levels)
    return rep


def suite_li(d: NagaoDatum, radius: int, levels=(1, 2)) -> SuiteReport:
    """Free-product words produce valid level-i membership certificates.

    A certificate whose condition (a) saw no level-i horoball in view and
    which names no other violation is skipped, as `info["skipped"]`."""
    rep = SuiteReport("li")
    t = T.ball(d, T.base_vertex(), radius)
    word_len, support = (2, 3) if d.k <= 3 else (1, 2)
    pool = W.enumerate_words(d, word_len, list(range(1, support + 1)))
    for i in levels:
        for w in pool:
            cert = E.check_Li(t, E.TreeMap.from_element(t, (d.ident0, w)), i)
            violation = cert.first_violation()
            if violation is not None and violation.get("checked") == 0:
                rep.skipped += 1
                continue
            rep.count(None if violation is None else
                      {"i": i, "word": W.word_to_json(w),
                       "violation": violation})
    rep.info["words"] = len(pool)
    if rep.skipped:
        rep.info["skipped"] = rep.skipped
    return rep


def suite_codist(d: NagaoDatum, radius: int) -> SuiteReport:
    """Synthesized codistance table passes the one-sided axioms and matches
    the BFS level of every vertex."""
    rep = SuiteReport("codist")
    t = T.ball(d, T.base_vertex(), radius)
    table = TC.synthesize_codistance(t)
    ver = TC.verify_codist(table, t)
    rep.checked += ver.checked
    rep.failures.extend(ver.failures)
    # levels equal distance to the nearest level-0 vertex, recomputed by BFS
    dist0 = T.bfs_depths([vid for vid in range(t.n) if t.level(vid) == 0],
                         t.adj.__getitem__)
    # the in-ball BFS distance to level 0 equals the level exactly when the
    # whole descending path stays inside the ball
    for vid in range(t.n):
        if t.dist[vid] + t.level(vid) > t.radius:
            continue
        level = table.values[t.verts[vid]]
        rep.count(None if dist0.get(vid) == level else
                  {"vertex": str(t.verts[vid]), "bfs_level": dist0.get(vid),
                   "table": level})
    return rep


# each suite run from (datum, radius, levels, samples, seed)
_SUITES = {
    "degrees": lambda d, r, levels, n, seed: suite_degrees(d, r),
    "transitivity": lambda d, r, levels, n, seed: suite_transitivity(d, r),
    "horoball": lambda d, r, levels, n, seed:
        suite_horoball(d, r, max_i=max(3, levels[-1])),
    "transport": lambda d, r, levels, n, seed:
        suite_transport(d, min(r, 5), levels=levels, samples=n, seed=seed),
    "li": lambda d, r, levels, n, seed: suite_li(d, r, levels=levels),
    "codist": lambda d, r, levels, n, seed: suite_codist(d, r),
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(d: NagaoDatum, radius: int, names=SUITE_NAMES, samples: int = 0,
               seed: int = 0, level: int = 2) -> list[SuiteReport]:
    """Run the named suites on the radius-`radius` ball of `d`; an unknown
    name is refused before any suite runs.

    `level` has a floor of 2: the transport and li suites check the levels
    1..max(2, level), and the horoball suite goes up to max(3, level), so
    level 1 runs exactly what level 2 runs.  The CLI default is level 1
    and every pinned report depends on it, so the floor stays.  The
    transport suite runs at radius min(radius, 5), and its report does not
    say so (ROADMAP item 2).
    """
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
    levels = tuple(range(1, max(2, level) + 1))
    return [_SUITES[name](d, radius, levels, samples, seed) for name in names]
