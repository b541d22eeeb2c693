"""Transporter elements between same-level vertices and between components.

Three families, all exact group elements:

  delta_xy   the unique horosphere transporter supported above the level,
             conjugated into position for non-standard base points;
  gamma_xy   the cocycle gamma_y * gamma_x^-1 built from the canonical
             address words, moving x to y for any two same-level vertices;
  tau_XY     products of horosphere transporters along the unique geodesic
             in the component graph, moving component X onto component Y.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from . import horo as H
from . import tree as T
from . import words as W
from .datum import NagaoDatum
from .errors import LevelMismatch, NotSameHorosphere
from .horo import ComponentGraph, Piece
from .tree import Vertex
from .words import Gamma, Word


def delta_xy(d: NagaoDatum, x: Vertex, y: Vertex) -> Word:
    """The unique transporter of x to y supported above level l(x).

    Requires y on the horosphere of x.  For x = x_{i,s} standard this is a
    single syllable at ray s supported at positions > i; in general it is the
    conjugate w * delta_std * w^-1 by the address word of x.
    """
    if x[2] != y[2] or x[2] == 0:
        raise NotSameHorosphere(
            f"levels {x[2]} and {y[2]} must agree and be positive")
    if x == y:
        return W.EMPTY
    wy = H._standard_offset(d, x, y)
    if wy is None:
        raise NotSameHorosphere(f"{y} is not on the horosphere of {x}")
    w = x[0]
    return W.delta_mul(d, W.delta_mul(d, w, wy), W.delta_inv(d, w))


def gamma_vertex(d: NagaoDatum, x: Vertex) -> Gamma:
    """The canonical element gamma_x = w_x * gamma_s moving x_i to x.

    The once-and-for-all choice of translating word is the canonical address
    word itself, so the assignment is reproducible.
    """
    w, s, i = x
    if i == 0:
        raise LevelMismatch("gamma_x is defined for positive level only")
    return W.word_times_gamma_s(d, w, s)


def gamma_xy(d: NagaoDatum, x: Vertex, y: Vertex) -> Gamma:
    """gamma_y * gamma_x^-1: moves x to y for any two same-level vertices."""
    if x[2] != y[2] or x[2] == 0:
        raise LevelMismatch(f"levels {x[2]} and {y[2]} must agree and be positive")
    return W.gamma_mul(d, gamma_vertex(d, y), W.gamma_inv(d, gamma_vertex(d, x)))


def gamma_xy_on_horoball(d: NagaoDatum, hb: Piece, x_vid: int, y: Vertex):
    """Yield (u, gamma_xy(x, y) . u) for u over hb.vertex_ids, in order,
    where x = hb.tree.verts[x_vid] lies on the horosphere of hb.

    With c = gamma_{s_y} gamma_{s_x}^-1 in Gamma0 (gamma_s = reps[s-1]),
    gamma_xy(x, y) = w_y * c * w_x^-1, and r = w_x^-1 . u depends on the
    ball only (`Piece.relative` memoises it).  r lies in HB(x_{i,s_x}), so
    its ray is s_x and, at level l, its word is empty or one syllable at
    ray s_x supported above l (Serre, Trees, ch. II 1.6).  c conjugates
    that syllable to ray s' with c * gamma_{s_x} = gamma_{s'} * h, twisting
    its payload by h; here s' = s_y and h = 1 exactly.  So c relabels the
    ray of r to s_y, and each image costs one action of the word w_y.
    """
    t = hb.tree
    x = t.verts[x_vid]
    if x[2] != y[2] or x[2] == 0:
        raise LevelMismatch(f"levels {x[2]} and {y[2]} must agree and be positive")
    wy, sy, _ = y
    for u_vid, (wr, _, l) in zip(hb.vertex_ids, hb.relative(x_vid)):
        cr = (((sy, wr[0][1]),) if wr else wr, sy, l)  # c . r
        yield t.verts[u_vid], T.act_word(d, wy, cr)


def tau_XY(d: NagaoDatum, g: ComponentGraph, a: Vertex, b: Vertex) -> Word:
    """Product of edge transporters along the unique geodesic from a to b."""
    return tau_along(d, g, g.geodesic(a, b))


def tau_along(d: NagaoDatum, g: ComponentGraph, path: list[Vertex]) -> Word:
    """Product of edge transporters along an arbitrary node path; an edge
    moves its witness pair by delta_xy."""
    out = W.EMPTY
    for u, v in zip(path, path[1:]):
        out = W.delta_mul(d, delta_xy(d, *g.witness(u, v)), out)
    return out


# -- verification sweep -------------------------------------------------------

class ProductSpace:
    """The cartesian product of a few sequences, in row-major order, as a
    sized and indexable sequence that is never built: entry k is decoded
    from k, and iteration is itertools.product."""

    __slots__ = ("factors",)

    def __init__(self, *factors):
        self.factors = factors

    def __len__(self) -> int:
        return math.prod(map(len, self.factors))

    def __getitem__(self, k: int) -> tuple:
        if not 0 <= k < len(self):
            raise IndexError(k)
        out = []
        for f in reversed(self.factors):
            k, j = divmod(k, len(f))
            out.append(f[j])
        return tuple(reversed(out))

    def __iter__(self):
        return itertools.product(*self.factors)


def _pair(sep: str, p: str = "x", q: str = "y"):
    return lambda i, a, b: (f"i={i} {a}{sep}{b}", {p: str(a), q: str(b)})


def _triple(p: str, q: str, r: str):
    return lambda i, a, b, c: (f"i={i} {a},{b},{c}",
                               {p: str(a), q: str(b), r: str(c)})


def _conjugated(p: str, q: str):
    return lambda i, h, a, b: (f"i={i} h on {a},{b}",
                               {"h": str(h), p: str(a), q: str(b)})


# instance text and witness of a failed check, built from the level and the
# instance parts the sweep hands to TransportReport.add
_DESCRIBE = {
    "delta-moves": _pair("->"),
    "delta-inverse": _pair(","),
    "delta-cocycle": _triple("x", "y", "z"),
    "delta-equivariance": _conjugated("x", "y"),
    "delta-equivariance-gamma0": lambda i, g0, x, y: (
        f"i={i} g{g0} on {x},{y}", {"g0": g0, "x": str(x), "y": str(y)}),
    "gamma-moves": _pair("->"),
    "gamma-inverse": _pair(","),
    "gamma-in-delta": _pair(","),
    "gamma-cocycle": _triple("x", "y", "z"),
    "delta-gamma-restriction": _pair(","),
    "gamma-restriction": lambda i, x, y, xp: (
        f"i={i} {x},{y} via {xp}", {"x": str(x), "y": str(y), "xp": str(xp)}),
    "tau-identity": lambda i: (f"i={i}", None),
    "tau-maps-onto": _pair("->", "a", "b"),
    "tau-inverse": _pair(",", "a", "b"),
    "tau-cocycle": _triple("a", "b", "c"),
    "tau-equivariance": _conjugated("a", "b"),
    "tau-path-independence": lambda i, a, b, path: (
        f"i={i} {a}->{b} len={len(path)}",
        {"a": str(a), "b": str(b), "path_len": len(path) - 1}),
}


@dataclass
class TransportReport:
    """Per-rule checked and failed counts of a sweep, plus one entry per
    failed check; a passing check is only counted."""

    truncation: int = 0
    rules: dict[str, dict] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(slot["checked"] for slot in self.rules.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def add(self, rule: str, ok: bool, i: int, *parts) -> None:
        """Count one check of `rule` at level i; a failure is also described
        from its instance parts."""
        slot = self.rules.get(rule)
        if slot is None:
            slot = self.rules[rule] = {"checked": 0, "failed": 0}
        slot["checked"] += 1
        if not ok:
            slot["failed"] += 1
            instance, witness = _DESCRIBE[rule](i, *parts)
            entry = {"rule": rule, "instance": instance, "pass": False}
            if witness is not None:
                entry["witness"] = witness
            self.failures.append(entry)

    def to_json(self) -> dict:
        return {
            "truncation": self.truncation,
            "passed": self.passed,
            "total": self.total,
            "failed": len(self.failures),
            "rules": self.rules,
            "failures": self.failures,
        }


def verify_transport(d: NagaoDatum, radius: int, levels=(1, 2), samples: int = 0,
                     seed: int = 0) -> TransportReport:
    """Check the calculation rules of all three transporter families.

    With samples == 0 the sweep is exhaustive over the in-ball instances at
    the given levels; otherwise `samples` instances per family are drawn
    with the seeded generator.  Failures carry witnesses.  Three rules
    leave instances out uncounted (ROADMAP item 3): `tau-equivariance`
    drops an instance whose images leave the ball, `tau-path-independence`
    a pair whose random walks find no path, and `tau-maps-onto` compares
    only the in-ball part of the image.

    Exhaustive sweeps iterate their instance pools without copying them.
    The gamma-cocycle triples of level-i vertices (252^3, about 16M, at
    level 1 on D2 r4) are a ProductSpace: a sampled sweep draws triples by
    index, in the same order as from the built list, and never builds it.

    The rules ask for the same transporter many times over, so delta_xy,
    gamma_xy and tau_XY (one memo per level, as the component graph is
    per level) are each evaluated once per argument pair; the memos live
    for this one sweep.  The right-hand sides of the two equivariance
    rules under Delta words and Gamma0 take image pairs, almost all of
    them new, so they call delta_xy directly: a memo there would hold
    pairs that are never asked for again.
    """
    rng = random.Random(seed)
    dxy = functools.cache(functools.partial(delta_xy, d))
    gxy = functools.cache(functools.partial(gamma_xy, d))
    t = T.ball(d, T.base_vertex(), radius)
    rep = TransportReport(truncation=radius)

    def sample(pool, n):
        if samples == 0 or len(pool) <= n:
            return pool
        return [pool[rng.randrange(len(pool))] for _ in range(n)]

    small_words = W.enumerate_words(d, 2, [1, 2])
    # D2 has 51,696 small words; a sampled sweep inverts the few it draws
    h_inv = functools.cache(functools.partial(W.delta_inv, d))
    g0_inv = [W.gamma_inv(d, (g0, W.EMPTY)) for g0 in range(d.gamma0.order)]

    for i in levels:
        # the in-ball horosphere of every level-i vertex, in address order;
        # balls and horoballs are convex, so the flooded horosphere is the
        # in-ball part of the symbolic one
        spheres = [sorted((t.verts[v] for v in hb.horosphere_ids()),
                          key=T.address_key) for hb in H.horoballs(t, i)]
        sphere = {x: members for members in spheres for x in members}
        vs = sorted(sphere, key=T.address_key)
        hs_pairs = [(x, y) for x in vs for y in sphere[x]]
        lv_pairs = [(x, y) for x in vs for y in vs]

        # delta rules
        for x, y in sample(hs_pairs, samples):
            dl = dxy(x, y)
            rep.add("delta-moves", T.act_word(d, dl, x) == y, i, x, y)
            rep.add("delta-inverse", dxy(y, x) == W.delta_inv(d, dl),
                    i, x, y)
        for x, y in sample(hs_pairs, max(1, samples // 4)):
            for z in sample(sphere[x], max(1, samples // 4)):
                lhs = W.delta_mul(d, dxy(y, z), dxy(x, y))
                rep.add("delta-cocycle", lhs == dxy(x, z), i, x, y, z)
        for x, y in sample(hs_pairs, max(1, samples // 4)):
            dl = dxy(x, y)
            for h in sample(small_words, 8 if samples else 4):
                hx, hy = T.act_word(d, h, x), T.act_word(d, h, y)
                lhs = W.delta_mul(d, W.delta_mul(d, h, dl), h_inv(h))
                rep.add("delta-equivariance", lhs == delta_xy(d, hx, hy),
                        i, h, x, y)
        # equivariance under the finite vertex group: by uniqueness of the
        # high transporter, conjugating delta_{x,y} must give the
        # transporter of the image pair; this is the rule that requires the
        # root-group actions to be genuine automorphisms
        for x, y in sample(hs_pairs, max(1, samples // 4)):
            dl = (d.ident0, dxy(x, y))
            for g0 in range(d.gamma0.order):
                g = (g0, W.EMPTY)
                gx, gy = T.act(d, g, x), T.act(d, g, y)
                lhs = W.gamma_mul(d, W.gamma_mul(d, g, dl), g0_inv[g0])
                try:
                    rhs = (d.ident0, delta_xy(d, gx, gy))
                    ok = lhs == rhs
                except NotSameHorosphere:
                    ok = False
                rep.add("delta-equivariance-gamma0", ok, i, g0, x, y)

        # gamma rules
        for x, y in sample(lv_pairs, samples):
            g = gxy(x, y)
            rep.add("gamma-moves", T.act(d, g, x) == y, i, x, y)
            rep.add("gamma-inverse", gxy(y, x) == W.gamma_inv(d, g),
                    i, x, y)
            if x[1] == y[1]:  # same Delta-orbit: the Gamma0 part must vanish
                rep.add("gamma-in-delta", g[0] == d.ident0, i, x, y)
        for x, y, z in sample(ProductSpace(vs, vs, vs), samples):
            lhs = W.gamma_mul(d, gxy(y, z), gxy(x, y))
            rep.add("gamma-cocycle", lhs == gxy(x, z), i, x, y, z)

        # cross-family rule: for same-horosphere pairs the two transporters
        # restrict identically to the horoball (membership condition (a)
        # for free-product elements); ties the conjugation-free delta
        # calculus to the Gamma0-sensitive gamma calculus
        for x, y in sample(hs_pairs, samples):
            dl = (d.ident0, dxy(x, y))
            gm = gxy(x, y)
            hb = H.horoball(t, x)
            ok = all(T.act(d, dl, t.verts[v]) == T.act(d, gm, t.verts[v])
                     for v in hb.vertex_ids)
            rep.add("delta-gamma-restriction", ok, i, x, y)

        # restriction rule: gamma_{x,y} and gamma_{x',y'} agree on HB(x).
        # On the builtins (trivial root-group actions) a wrong gamma_{x,y}
        # that is still a group element passes; only twisted data fail it
        for x, y in sample(lv_pairs, max(1, samples // 2)):
            g = gxy(x, y)
            hb = H.horoball(t, x)
            img = [T.act(d, g, t.verts[v]) for v in hb.vertex_ids]
            for xp in sample([t.verts[v] for v in hb.horosphere_ids()], 4):
                yp = T.act(d, g, xp)
                gp = gxy(xp, yp)
                ok = all(T.act(d, gp, t.verts[v]) == u
                         for v, u in zip(hb.vertex_ids, img))
                rep.add("gamma-restriction", ok, i, x, y, xp)

        # tau rules
        g_i = H.component_graph(t, i)
        txy = functools.cache(functools.partial(tau_XY, d, g_i))
        keys = g_i.node_keys()
        rep.add("tau-identity", txy(keys[0], keys[0]) == W.EMPTY, i)
        pairs = [(a, b) for a in keys for b in keys if a != b]
        for a, b in sample(pairs, samples):
            tau = txy(a, b)
            img = {T.act_word(d, tau, v) for v in g_i.components[a].vertices()}
            tgt = set(g_i.components[b].vertices())
            in_ball_img = {v for v in img if v in t}
            rep.add("tau-maps-onto", in_ball_img <= tgt, i, a, b)
            rep.add("tau-inverse", txy(b, a) == W.delta_inv(d, tau), i, a, b)
        triples = [(a, b, c) for a in keys for b in keys for c in keys]
        for a, b, c in sample(triples, samples):
            lhs = W.delta_mul(d, txy(b, c), txy(a, b))
            rep.add("tau-cocycle", lhs == txy(a, c), i, a, b, c)
        # equivariance under Delta, evaluated where the images stay in view
        for a, b in sample(pairs, max(1, samples // 2)):
            for h in sample(small_words, 4):
                ka = g_i.key_of(T.act_word(d, h, a))
                kb = g_i.key_of(T.act_word(d, h, b))
                if ka is None or kb is None:
                    continue
                lhs = W.delta_mul(d, W.delta_mul(d, h, txy(a, b)), h_inv(h))
                rep.add("tau-equivariance", lhs == txy(ka, kb),
                        i, h, a, b)
        # path independence: products over arbitrary paths match the geodesic
        for a, b in sample(pairs, max(1, samples // 2)):
            geo = g_i.geodesic(a, b)
            for path in _random_paths(g_i, a, b, rng, limit=3,
                                      maxlen=len(geo) + 3):
                rep.add("tau-path-independence",
                        tau_along(d, g_i, path) == txy(a, b),
                        i, a, b, path)
    return rep


def _random_paths(g: ComponentGraph, a: Vertex, b: Vertex, rng, limit: int,
                  maxlen: int) -> list[list[Vertex]]:
    """A few random walks from a that happen to reach b within maxlen."""
    out = []
    for _ in range(60):
        if len(out) >= limit:
            break
        path = [a]
        for _ in range(maxlen):
            nbrs = g.edges[path[-1]]
            if not nbrs:
                break
            path.append(nbrs[rng.randrange(len(nbrs))])
            if path[-1] == b:
                out.append(path)
                break
    return out
