"""Level-preserving extension machinery and commensurator probes.

The central construction extends a level-preserving isomorphism between two
components of the level-<=i forest to a level-preserving automorphism of the
whole truncation: horoballs hanging off the source component are moved by
the canonical vertex transporters, neighboring components by conjugated
component transporters, and the definition propagates outward along the
component graph.  The result is the unique extension satisfying the two
membership conditions that define the level-i automorphism group (horoball
restriction, transporter conjugation).

Greedy extension grows an isomorphism between subtrees over the ball: the
unmatched neighbors of each matched vertex take the unused neighbors of its
image, in canonical order and within one partner class.  The class is the
level for level-preserving extension, and the vertex type for
type-preserving extension of biregular data.

Probes (homomorphism, commensuration) evaluate group-theoretic identities
pointwise on the truncation and report exactly what was checked; they are
sample-based evidence, not certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, ClassVar, Optional

from . import horo as H
from . import transport as TR
from . import tree as T
from . import twincodist as TC
from . import words as W
from .datum import NagaoDatum
from .errors import (CannotExtendInTruncation, NotIsomorphism,
                     NotLevelPreserving, TruncationExceeded, TypeMismatch)
from .serialize import Tally, vertex_to_json
from .tree import TruncatedTree, Vertex
from .words import Gamma, Word


class TreeMap:
    """A partial injective map between vertex sets of the tree.

    `pairs` is the explicit finite graph of the map.  A map that restricts
    a known group element keeps it as a backing, so a vertex outside
    `pairs` takes the backing image, formed on each read.  An element map
    (`from_element`) has no explicit graph: a certificate acts only on the
    vertices it reads, the map keeps its ball's images by vid, and the
    extension operators refuse it as an empty map.  Domain vertices are
    addressed symbolically, so images may lie outside any particular ball.
    """

    def __init__(self, datum: NagaoDatum, pairs: dict[Vertex, Vertex],
                 backing: Optional[Gamma] = None):
        self.datum = datum
        self.pairs = pairs
        self.backing = backing
        self._inverse: Optional[dict[Vertex, Vertex]] = None
        self._ball: dict[Vertex, int] = {}  # vertex ids of the kept images
        self._images: list[Optional[Vertex]] = []

    @classmethod
    def from_element(cls, t: TruncatedTree, g: Gamma) -> "TreeMap":
        """The map of g on t's datum, evaluated on demand; keeps t's images."""
        h = cls(t.datum, {}, backing=g)
        h._ball, h._images = t.index, [None] * len(t.verts)
        return h

    def apply(self, v: Vertex) -> Optional[Vertex]:
        img = self.pairs.get(v)
        if img is None and self.backing is not None:
            vid = self._ball.get(v)
            if vid is None:
                return T.act(self.datum, self.backing, v)
            img = self._images[vid]
            if img is None:
                img = self._images[vid] = T.act(self.datum, self.backing, v)
        return img

    def inverse_apply(self, v: Vertex) -> Optional[Vertex]:
        if self._inverse is None:
            self._inverse = {img: src for src, img in self.pairs.items()}
        img = self._inverse.get(v)
        if img is None and self.backing is not None:
            img = T.act(self.datum, W.gamma_inv(self.datum, self.backing), v)
        return img

    def is_level_preserving(self) -> bool:
        return all(v[2] == img[2] for v, img in self.pairs.items())

    def is_type_preserving(self) -> bool:
        return all(TC.vertex_type(v) == TC.vertex_type(img)
                   for v, img in self.pairs.items())

    def compose(self, inner: "TreeMap") -> "TreeMap":
        """self o inner, on the domain where the chain is defined."""
        out = {}
        for v, mid in inner.pairs.items():
            img = self.apply(mid)
            if img is not None:
                out[v] = img
        backing = None
        if self.backing is not None and inner.backing is not None:
            backing = W.gamma_mul(self.datum, self.backing, inner.backing)
        return TreeMap(self.datum, out, backing=backing)

    def to_json(self) -> dict:
        return {
            "level_preserving": self.is_level_preserving(),
            "type_preserving": self.is_type_preserving(),
            "pairs": [[vertex_to_json(v), vertex_to_json(img)]
                      for v, img in sorted(self.pairs.items(),
                                           key=lambda p: T.address_key(p[0]))],
        }


def _check_partial_iso(d: NagaoDatum, pairs: dict[Vertex, Vertex],
                       require_levels: bool) -> None:
    """Validate a map between subtrees: injective, connected domain,
    adjacency-preserving, and level-preserving when required.

    Each address is validated once.  The root (the least domain address)
    and its image are validated up front, image first; the walk then reads
    neighbor lists unchecked.  Every other domain vertex it reaches is a
    `neighbors` output, and every other image is checked to lie in such a
    list, so both are canonical without a second look.
    """
    if not pairs:
        raise NotIsomorphism("empty map")
    if len(set(pairs.values())) != len(pairs):
        raise NotIsomorphism("map is not injective")
    if require_levels:
        for v, img in pairs.items():
            if v[2] != img[2]:
                raise NotLevelPreserving(f"{v} (level {v[2]}) -> {img} (level {img[2]})")

    def preserved_edges(v: Vertex) -> list[Vertex]:
        """The domain neighbors of v, each edge's images checked adjacent."""
        img_nbrs = set(T.neighbors(d, pairs[v], checked=False))
        nbrs = [u for u in T.neighbors(d, v, checked=False) if u in pairs]
        for u in nbrs:
            if pairs[u] not in img_nbrs:
                raise NotIsomorphism(f"edge {v}~{u} not preserved")
        return nbrs

    # one walk checks connectivity and edges, looking only at what it reaches
    root = min(pairs, key=T.address_key)
    T.validate_address(d, pairs[root])
    T.validate_address(d, root)
    if len(T.bfs_depths([root], preserved_edges)) != len(pairs):
        raise NotIsomorphism("domain is not a connected subtree")


def greedy_extend(t: TruncatedTree, psi: TreeMap,
                  level_bound: Optional[int] = None) -> TreeMap:
    """Extend a level-preserving isomorphism between subtrees to the ball.

    Frontier vertices are matched level-compatibly in canonical address
    order, so the output is a function of (datum, input, ball) only.  The
    images may leave the ball: the result is the restriction to the ball of
    a level-preserving automorphism of the tree.  With a level bound, just
    the in-ball part of the level-<=bound component of the domain is covered
    and all matching stays below the bound.
    """
    _check_partial_iso(t.datum, psi.pairs, require_levels=True)
    return _greedy_match(t, psi.pairs, itemgetter(2), level_bound)


def _greedy_match(t: TruncatedTree, pairs: dict[Vertex, Vertex],
                  partner_class: Callable[[Vertex], int],
                  level_bound: Optional[int] = None) -> TreeMap:
    """Grow a partial isomorphism over the ball: each unmatched neighbor of a
    matched vertex v, in canonical address order, takes the first unused
    neighbor of v's image with the same partner class.

    The map does not depend on the order in which matched vertices are
    processed, so they wait on a plain stack.  The matched set and the used
    image set each stay a subtree, and a vertex outside a subtree has at
    most one neighbor in it, or the tree would have a cycle.  So every
    frontier vertex has exactly one matched neighbor v and is matched when
    v is processed, and every free neighbor of v's image has exactly one
    used neighbor and can be used only then.  When v comes off the stack,
    its matched neighbors and the used neighbors of its image are still the
    ones they were when v was matched, and v's choices are fixed.  The
    degree of a vertex depends on its level alone, so v and its image have
    equally many free neighbors per class (for types, see
    `extend_type_preserving`): the raise below is an invariant check.
    Each new pair maps an edge to an edge onto an unused image, so the
    output is again a partial isomorphism between subtrees.

    Neighbor lists are read unchecked: the input has just passed
    `_check_partial_iso`, so its addresses are canonical, and every vertex
    matched here is a `neighbors` output.
    """
    d = t.datum
    match: dict[Vertex, Vertex] = dict(pairs)
    used = set(match.values())
    for v in match:
        if v not in t:
            raise CannotExtendInTruncation(f"domain vertex {v} outside the ball")

    def in_bound(u: Vertex) -> bool:
        return level_bound is None or u[2] <= level_bound

    stack = [v for v in match if in_bound(v)]
    while stack:
        v = stack.pop()
        by_class: dict[int, list[Vertex]] = {}
        for u in sorted(T.neighbors(d, match[v], checked=False),
                        key=T.address_key):
            if in_bound(u) and u not in used:
                by_class.setdefault(partner_class(u), []).append(u)
        for u in sorted((u for u in T.neighbors(d, v, checked=False)
                         if in_bound(u) and u not in match), key=T.address_key):
            partners = by_class.get(partner_class(u))
            if not partners:
                raise CannotExtendInTruncation(
                    f"no partner for {u} at frontier of {v}")
            w = partners.pop(0)
            match[u] = w
            used.add(w)
            if u in t:
                stack.append(u)
    return TreeMap(d, match)


def _compare(pairs, image: Callable, names: tuple[str, ...],
             head: tuple) -> tuple[int, Optional[dict]]:
    """Compare image(point) with want over (point, want) pairs, a point in
    view when its image is not None.  Returns the number of points in view
    up to the first image != want, and that failure, naming `head`, the
    point and both sides by `names` (None when every image agrees)."""
    n = 0
    for u, want in pairs:
        got = image(u)
        if got is None:
            continue
        n += 1
        if got != want:
            return n, dict(zip(names, map(str, (*head, u, got, want))))
    return n, None


@dataclass
class ConditionStats(Tally):
    """The tally of one membership condition, with the points checked per
    instance when recorded."""

    instances: list[dict] = field(default_factory=list)

    def add(self, points: int, failure: Optional[dict],
            record: Optional[dict]) -> bool:
        """Add one instance with `points` points in view: skipped with none,
        else counted, recorded with its number of points when `record` is
        given, and failed when `failure` is given.  Returns whether it
        failed."""
        if points == 0:
            self.skipped += 1
            return False
        self.count(failure)
        if record is not None:
            self.instances.append({**record, "points": points})
        return failure is not None

    def to_json(self) -> dict:
        out = {"checked": self.checked, "skipped": self.skipped,
               "failures": self.failures[:self.cap]}
        if self.instances:
            out["instances"] = self.instances
        return out


@dataclass
class LiCertificate:
    """Evidence that a map satisfies the two level-i membership conditions
    on every instance visible inside the truncation.  It is valid when it
    names no violation, and an unchecked condition (a) is one."""

    i: int
    truncation: int
    level_preserving: bool
    condition_a: ConditionStats
    condition_b: ConditionStats

    @property
    def valid(self) -> bool:
        return self.first_violation() is None

    def first_violation(self) -> Optional[dict]:
        if not self.level_preserving:
            return {"condition": "level", "witness": None}
        for name, cond in (("a", self.condition_a), ("b", self.condition_b)):
            if cond.failures:
                return {"condition": name, "witness": cond.failures[0]}
        if not self.condition_a.checked:
            return {"condition": "a", "witness": None, "checked": 0}
        return None

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "truncation": self.truncation,
            "valid": self.valid,
            "condition_a": self.condition_a.to_json(),
            "condition_b": self.condition_b.to_json(),
        }


def check_Li(t: TruncatedTree, h: TreeMap, i: int,
             record_instances: bool = False) -> LiCertificate:
    """Evaluate the two membership conditions for the level-i group.

    (a) on the horoball of every in-ball level-i vertex x, h agrees with the
        canonical transporter moving x to h(x);
    (b) conjugating the component transporter from the base component X0 to
        any component Y by h agrees, on h(X0), with the transporter between
        the image components.

    Instances whose data leave the truncation are counted as skipped, never
    silently passed.

    Condition (a) compares h with gamma_{x,y} on a horoball once, at its
    first base point x with y = h(x) in view, and gives every later base
    point in view that comparison's verdict and point count; each base
    point is still its own instance.  The reuse is exact.  For x' on the
    horosphere of x and y' = gamma_{x,y} . x', gamma_{x',y'} = gamma_{x,y}
    on HB(x): write w_{x'} = w_x delta sigma and w_{y'} = w_y rho(delta)
    sigma', where delta is the one syllable at ray s_x supported above i,
    rho the trivial-twist ray relabel s_x -> s_y of
    `transport.gamma_xy_on_horoball`, and sigma, sigma' lie in U_{<=i} at
    their rays, so they fix HB pointwise and commute with everything
    supported above i (Serre, Trees, ch. II 1.6).  The list
    holds (x', gamma_{x,y} . x') for every x' of the horosphere, and the
    check returns at its first failure, so a later x' with h(x') in view is
    reached only when h(x') = gamma_{x,y} . x', and its own list would be
    the same.  The same list against the same map gives the same points in
    view and no failure, so the later base point's own comparison would
    return the first one's passing verdict and point count.
    """
    d = t.datum
    lp = h.is_level_preserving()
    ca = ConditionStats(cap=10)
    cb = ConditionStats(cap=10)
    cert = LiCertificate(i=i, truncation=t.radius, level_preserving=lp,
                         condition_a=ca, condition_b=cb)
    if not lp:
        return cert

    # condition (a): horoball restrictions, one comparison per horoball
    for hb in H.horoballs(t, i):
        verdict = None
        for x_vid in hb.horosphere_ids():
            x = t.verts[x_vid]
            y = h.apply(x)
            if y is None:
                ca.skipped += 1
                continue
            if verdict is None:
                verdict = _compare(TR.gamma_xy_on_horoball(d, hb, x_vid, y),
                                   h.apply, ("x", "u", "h(u)", "gamma(u)"),
                                   (x,))
            record = {"x": str(x), "h(x)": str(y)} if record_instances else None
            if ca.add(*verdict, record):
                return cert

    # condition (b): transporter conjugation against the fixed base component
    graph = H.component_graph(t, i)
    base = T.base_vertex()
    x0_key = graph.key_of(base)
    if x0_key is None:
        cb.skipped += 1
        return cert
    x0_verts = graph.components[x0_key].vertices()
    hX0_key = graph.key_of(h.apply(x0_key))
    for y_key in graph.node_keys():
        hY_key = graph.key_of(h.apply(y_key))
        if hX0_key is None or hY_key is None:
            cb.skipped += 1
            continue
        tau = TR.tau_XY(d, graph, x0_key, y_key)
        tau_img = TR.tau_XY(d, graph, hX0_key, hY_key)
        # tau'(h(v)) is formed only where h(v) and h(tau(v)) are in view
        pairs = ((v, lhs) for v in x0_verts
                 if h.apply(v) is not None
                 and (lhs := h.apply(T.act_word(d, tau, v))) is not None)
        record = {"Y": str(y_key)} if record_instances else None
        verdict = _compare(pairs, lambda v: T.act_word(d, tau_img, h.apply(v)),
                           ("Y", "v", "tau'(h(v))", "h(tau(v))"), (y_key,))
        if cb.add(*verdict, record):
            return cert
    return cert


def extend_E(t: TruncatedTree, h: TreeMap, i: int,
             lenient: bool = False) -> TreeMap:
    """The unique extension of a component isomorphism to the truncation.

    h must be a level-preserving isomorphism defined on (the in-ball part
    of) a component X of the level-<=i forest.  The output agrees with h on
    X, acts on each horoball of X by the canonical vertex transporter, and
    propagates to the other components along the component graph by
    conjugated component transporters.

    The walk is a breadth-first search of the component graph from X, each
    component's neighbors in canonical address order.  A component takes
    its evaluator from its neighbor one layer closer to X, through the
    horosphere they share.  That neighbor is unique: the component graph is
    a block graph, with one clique per horosphere.  So every walk order
    gives the same map.
    """
    _check_partial_iso(t.datum, h.pairs, require_levels=True)
    return _extend_E(t, h, i, lenient)


def _extend_E(t: TruncatedTree, h: TreeMap, i: int, lenient: bool) -> TreeMap:
    """`extend_E` without the map check.  Its input was checked by
    `extend_E`, or built by `_greedy_match`, whose docstring proves it a
    partial isomorphism between subtrees, level-preserving by its class."""
    d = t.datum
    graph = H.component_graph(t, i)
    anchor = min(h.pairs, key=T.address_key)
    if anchor[2] > i:
        raise NotLevelPreserving(f"domain vertex {anchor} has level > {i}")
    x_key = graph.comp_of_vid[t.vid(anchor)]
    X = graph.components[x_key]

    result: dict[Vertex, Vertex] = {}
    for vid in X.vertex_ids:
        v = t.verts[vid]
        img = h.apply(v)
        if img is None:
            if not lenient:
                raise CannotExtendInTruncation(
                    f"input map not defined on component vertex {v}")
            continue
        result[v] = img

    def assign(u: Vertex, img: Vertex, what: str) -> None:
        """Set the image of u, or check it against the one already set."""
        if result.setdefault(u, img) != img:
            raise NotIsomorphism(f"{what} at {u}")

    # per-component evaluators: g_Z = post . h . pre with pre, post in Delta
    evaluators: dict[Vertex, tuple[Word, Word]] = {x_key: (W.EMPTY, W.EMPTY)}

    def evaluate(key: Vertex, v: Vertex) -> Optional[Vertex]:
        pre, post = evaluators[key]
        arg = T.act_word(d, pre, v)
        mid = h.apply(arg)
        if mid is None:
            if lenient:
                return None
            raise TruncationExceeded(
                f"propagation needs {arg}, outside the input domain")
        return T.act_word(d, post, mid)

    depth = T.bfs_depths([x_key], graph.edges.__getitem__)
    hb_done = set()
    for key, k in depth.items():
        Z = graph.components[key]
        if key != x_key:
            parent = next(p for p in graph.edges[key] if depth[p] < k)
            x, z = graph.witness(parent, key)
            y, zp = result.get(x), result.get(z)
            if parent not in evaluators or y is None or zp is None:
                continue
            pre, post = evaluators[parent]
            evaluators[key] = (W.delta_mul(d, pre, TR.delta_xy(d, z, x)),
                               W.delta_mul(d, TR.delta_xy(d, y, zp), post))
            # map the component itself (X is mapped by h above); where an
            # image already exists (the entry vertex, set from the horoball
            # side) the two definitions have to agree
            for vid in Z.vertex_ids:
                v = t.verts[vid]
                img = evaluate(key, v)
                if img is not None:
                    assign(v, img, "horoball and component definitions disagree")
        # horoballs at the component's level-i vertices
        for x_vid in Z.horosphere_ids():
            x = t.verts[x_vid]
            hb = H.horoball(t, x)
            y = result.get(x)
            if hb in hb_done or y is None:
                continue
            hb_done.add(hb)
            for u, img in TR.gamma_xy_on_horoball(d, hb, x_vid, y):
                assign(u, img, "inconsistent horoball propagation")

    uncovered = [v for v in t.verts if v not in result]
    if uncovered and not lenient:
        raise TruncationExceeded(
            f"{len(uncovered)} ball vertices not reached, e.g. {uncovered[0]}")
    return TreeMap(d, result)


@dataclass
class ProbeReport:
    name: str
    entries: list[dict] = field(default_factory=list)
    note: str = ""

    @property
    def passed(self) -> bool:
        """No failures and at least one verified entry (None = skipped)."""
        oks = [e.get("ok") for e in self.entries]
        return all(ok is not False for ok in oks) and any(ok is True for ok in oks)

    def to_json(self) -> dict:
        return {"probe": self.name, "passed": self.passed, "note": self.note,
                "entries": self.entries}


def homomorphism_probe(t: TruncatedTree, g: TreeMap, h: TreeMap,
                       i: int) -> ProbeReport:
    """Compare E(g o h) with E(g) o E(h) pointwise.

    Both sides are evaluated on the ball interior wherever the composition
    chains are defined; points with data outside the truncation are counted
    as skipped.
    """
    gh = g.compose(h)
    Eg = extend_E(t, g, i, lenient=True)
    Eh = extend_E(t, h, i, lenient=True)
    Egh = extend_E(t, gh, i, lenient=True)
    tally = ConditionStats(cap=5)
    for vid in t.interior_ids():
        v = t.verts[vid]
        lhs = Egh.apply(v)
        mid = Eh.apply(v)
        rhs = Eg.apply(mid) if mid is not None else None
        if lhs is None or rhs is None:
            tally.skipped += 1
            continue
        tally.count(None if lhs == rhs else
                    {"v": str(v), "E(gh)": str(lhs), "E(g)E(h)": str(rhs)})
    return ProbeReport(name="homomorphism",
                       entries=[{"ok": tally.passed, **tally.to_json()}])


# the longest witness word the commensuration probe accepts
SEARCH_BOUND = 6


def commensuration_probe(t: TruncatedTree, Eg: TreeMap, samples: list[Word],
                         i: int) -> ProbeReport:
    """Per-sample commensuration evidence for the extension Eg.

    For each sampled word delta, the probe finds a coset shift delta_j in
    the level-<=i lattice such that Eg^-1 (delta_j^-1 delta) Eg agrees on
    the visible ball with the action of an explicitly produced word delta'.
    The canonical candidate for delta_j is tau * delta, where tau transports
    the component delta.Y_i back to Y_i (this mirrors the membership
    argument).  The candidates are tau * delta * sigma^-1 over the
    level-<=i words sigma of length <= 2, enumerated once per probe and
    tried in that order: the empty shift comes first, and each candidate is
    formed only when it is tried.
    Success is per sample; nothing here certifies finite index.
    """
    d = t.datum
    graph = H.component_graph(t, i)
    base = T.base_vertex()
    y_key = graph.comp_of_vid[t.vid(base)]
    shifts = W.enumerate_words(d, 2, list(range(1, i + 1)))
    entries = []
    for delta in samples:
        entry = {"sample": W.word_to_json(delta), "ok": False}
        img = T.act_word(d, delta, base)
        if img not in t:
            entry["ok"] = None
            entry["skip"] = "sample moves the base vertex out of the ball"
            entries.append(entry)
            continue
        z_key = graph.comp_of_vid[t.vid(img)]
        tau = TR.tau_XY(d, graph, z_key, y_key)
        w_pre = W.delta_mul(d, tau, delta)
        found = None
        # distinct normal-form shifts give distinct candidates
        for sigma in shifts:
            delta_j = W.delta_mul(d, w_pre, W.delta_inv(d, sigma))
            m = W.delta_mul(d, W.delta_inv(d, delta_j), delta)
            res = _match_conjugate_to_word(t, Eg, m)
            if res is not None:
                word, tally = res
                found = {"delta_j": W.word_to_json(delta_j),
                         "witness": W.word_to_json(word),
                         "witness_length": len(word),
                         "checked": tally.checked, "skipped": tally.skipped,
                         "bound": SEARCH_BOUND}
                break
        if found:
            entry.update(found)
            entry["ok"] = True
        entries.append(entry)
    return ProbeReport(
        name="commensuration", entries=entries,
        note=("sample-verified on the truncation only; finite-index "
              "membership is not certified"))


def _match_conjugate_to_word(t: TruncatedTree, Eg: TreeMap, m: Word):
    """Find delta', of length at most SEARCH_BOUND, with
    Eg^-1 . m . Eg = act(delta') on the visible ball.

    The candidate is forced: the free product acts simply transitively on
    level-0 vertices, so delta' is the quotient of the address words of any
    level-0 vertex and its image under the conjugated map.  The first
    level-0 vertex whose evaluation chain stays visible supplies the
    candidate; the match is then verified pointwise everywhere computable.
    Returns the word and the tally of the verified points, or None.
    """
    d = t.datum

    def chain(v: Vertex):
        a = Eg.apply(v)
        if a is None:
            return None
        b = T.act_word(d, m, a)
        return Eg.inverse_apply(b)

    delta_prime = None
    for vid in range(t.n):
        v = t.verts[vid]
        if v[2] != 0:
            continue
        c = chain(v)
        if c is None:
            continue
        # c = delta' * v as words on the simply transitive level-0 orbit
        delta_prime = W.delta_mul(d, c[0], W.delta_inv(d, v[0]))
        break
    if delta_prime is None or len(delta_prime) > SEARCH_BOUND:
        return None
    tally = Tally()
    for vid in t.interior_ids():
        v = t.verts[vid]
        lhs = chain(v)
        if lhs is None:
            tally.skipped += 1
            continue
        if lhs != T.act_word(d, delta_prime, v):
            return None
        tally.count()
    return (delta_prime, tally) if tally.passed else None


def select_truncation_level(t: TruncatedTree, vertices) -> int:
    """The level bound used by the density pipeline.

    Biregular data: any bound >= 2 makes the bounded piece non-biregular, so
    start at 2.  Otherwise take l + 3 for the first defect q_l != q_{l+2}.
    Either way the bound grows until the given vertices sit inside the
    bounded component of the base vertex (checked on the truncation).
    """
    prof = t.datum.profile
    if prof.biregular:
        i = 2
    else:
        defect = prof.first_period_two_defect()
        i = defect + 3
    base = T.base_vertex()
    needed = 0
    for v in vertices:
        path = T.geodesic(t, base, v)
        needed = max(needed, max(u[2] for u in path))
    return max(i, needed)


@dataclass
class PipelineReport:
    selected_i: int
    truncation: int
    certificate: LiCertificate
    commensuration: ProbeReport
    note: ClassVar[str] = ("commensuration is sample-verified on the "
                           "truncation, not certified")

    @property
    def passed(self) -> bool:
        return self.certificate.valid and self.commensuration.passed

    def to_json(self) -> dict:
        return {
            "selected_i": self.selected_i,
            "truncation": self.truncation,
            "passed": self.passed,
            "certificate": self.certificate.to_json(),
            "commensuration": self.commensuration.to_json(),
            "note": self.note,
        }


def density_pipeline(d: NagaoDatum, phi: TreeMap, radius: int,
                     n_samples: int = 8, seed: int = 0,
                     record_instances: bool = False) -> tuple[TreeMap, PipelineReport]:
    """Extend a level-preserving isomorphism between finite subtrees to a
    level-preserving automorphism of the truncation, with evidence.

    Steps: check phi, pick the level bound i (non-biregular bounded piece
    containing domain and image), greedily extend inside it, extend to the
    whole ball by the unique component-wise construction, then check
    membership and run the commensuration probe on seeded samples.

    The sample pool is the nonempty level-<=i+1 words of length <= 2 that
    keep the base vertex in the ball.  A normal-form word moves the base
    vertex by the sum of 2 * (top position) over its syllables, so a
    syllable above radius // 2 always leaves the ball: the pool is
    enumerated over positions up to min(i + 1, radius // 2) only.
    """
    t = T.ball(d, T.base_vertex(), radius)
    _check_partial_iso(d, phi.pairs, require_levels=True)
    touched = list(phi.pairs) + list(phi.pairs.values())
    for v in touched:
        if v not in t:
            raise CannotExtendInTruncation(f"{v} is outside the radius-{radius} ball")
    i = select_truncation_level(t, touched)
    g = _greedy_match(t, phi.pairs, itemgetter(2), i)
    Eg = _extend_E(t, g, i, lenient=False)
    cert = check_Li(t, Eg, i, record_instances=record_instances)
    rng = random.Random(seed)
    positions = list(range(1, min(i + 1, radius // 2) + 1))
    pool = [w for w in W.enumerate_words(d, 2, positions)
            if w and T.act_word(d, w, T.base_vertex()) in t]
    samples = [pool[rng.randrange(len(pool))] for _ in range(n_samples)] if pool else []
    comm = commensuration_probe(t, Eg, samples, i)
    report = PipelineReport(selected_i=i, truncation=radius, certificate=cert,
                            commensuration=comm)
    return Eg, report


# -- type-preserving extension (biregular case) -------------------------------


def extend_type_preserving(t: TruncatedTree, phi: TreeMap) -> TreeMap:
    """Extend a type-preserving isomorphism between subtrees to the ball.

    Biregular trees only (otherwise levels are forced by degrees and the
    level-preserving machinery applies: the input is delegated).  The input
    must be an isomorphism between connected subtrees whose domain lies in
    the ball; frontier vertices are matched greedily by vertex type, in
    canonical address order, so the images may leave the ball.

    The matcher never runs out of partners: in biregular data the degree of
    a vertex depends only on its type, and every neighbor of v, like every
    neighbor of phi(v), has the type opposite to v's.  A partial isomorphism
    between subtrees also reflects adjacency, so v and phi(v) have equally
    many matched neighbors, hence equally many unmatched and unused ones.
    """
    d = t.datum
    if not d.profile.biregular:
        return greedy_extend(t, phi)
    _check_partial_iso(d, phi.pairs, require_levels=False)
    for v, img in phi.pairs.items():
        if TC.vertex_type(v) != TC.vertex_type(img):
            raise TypeMismatch(f"{v} -> {img} changes the vertex type")
    return _greedy_match(t, phi.pairs, TC.vertex_type)
