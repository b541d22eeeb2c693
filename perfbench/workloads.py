"""The benchmark's workloads: seeded inputs, the ops they run, and the
checks every op output must pass.

A workload's set-up `WORKLOADS[name](seed, scratch)` builds fresh data and
inputs, as one CLI process would, and returns the ops of one run in order.  Each op has
an untimed `verify` that turns the raw result into a small summary and an
error message (None when the output is correct).  Expected values live in
EXPECTED so that the self-test can corrupt one and see the op fail.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nagaotree import cli
from nagaotree import datum as D
from nagaotree import extension as E
from nagaotree import suites as SU
from nagaotree import transport as TR
from nagaotree import tree as T
from nagaotree import words as W

# the 14 transporter rules acceptance criterion 4 requires of a sweep
REQUIRED_RULES = (
    "delta-moves", "delta-inverse", "delta-cocycle", "delta-equivariance",
    "gamma-moves", "gamma-inverse", "gamma-cocycle", "gamma-in-delta",
    "gamma-restriction", "tau-maps-onto", "tau-inverse", "tau-cocycle",
    "tau-equivariance", "tau-path-independence",
)

EXPECTED = {
    "sweep-exhaustive": {"D0 r5": 137_014, "D3 r4": 16_417},
    "sweep-sampled": {"min_checks": 200},
    "membership": {"selected_i": 2},
    # ball sizes and sha256 of the CLI report bytes (fixed configuration,
    # so the bytes are fixed too)
    "tree-build": {
        "tree D0 r12": {
            "size": 12_286,
            "sha256": "32e27d086c8fa3172973addb26f2b660fd554a13ecd720d0c0537f7e9b10da76",
        },
        "codist D0 r12": {
            "sha256": "fcab9f52c55f6ef2b7b801922884f548701a90f6c6f62188fc1cf66846525419",
        },
        "tree D3 r10": {
            "size": 6_481,
            "sha256": "3f168041fd100aa929a7957390ce0d20c5d0385b889d1b4674cb15adb2bff7ab",
        },
        "codist D3 r10": {
            "sha256": "af95b63f20964d9d09b48bb656a8ca99e087f57fc1f06c5f822bcef8ee7a5373",
        },
        "recovery_radius": 7,
    },
}

# membership draws per run (out of 4,432 words and 402 matchings)
MEMBERSHIP_WORDS = 1500
MEMBERSHIP_PIPELINES = 100


@dataclass
class Op:
    kind: str                       # sweep | certificate | pipeline | export | recovery
    label: str                      # unique within a run
    run: Callable[[], object]       # the timed call
    verify: Callable[[object], tuple[dict, str | None]]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# -- sweeps ---------------------------------------------------------------------

def _suite_transport(d, radius: int, samples: int, seed: int):
    """`suites.suite_transport`, keeping the TransportReport it builds so the
    rule names can be checked (the suite report drops passing checks)."""
    captured = []
    inner = TR.verify_transport

    def capture(*args, **kwargs):
        rep = inner(*args, **kwargs)
        captured.append(rep)
        return rep

    TR.verify_transport = capture
    try:
        suite = SU.suite_transport(d, radius, levels=(1, 2), samples=samples,
                                   seed=seed)
    finally:
        TR.verify_transport = inner
    return suite, captured[0]


def _sweep_summary(res) -> dict:
    suite, tr = res
    tr_json = tr.to_json()
    return {"checked": suite.checked, "passed": suite.passed,
            "rules": sorted(tr_json["rules"]),
            "digest": digest([suite.to_json(), tr_json])}


def sweep_exhaustive(seed: int, scratch: Path) -> list[Op]:
    # exhaustive sweeps draw nothing at random: the seed stays 0, as in
    # `nagaotree suite --suites transport`, so the check counts are fixed
    ops = []
    for name, radius in (("D0", 5), ("D3", 4)):
        d = D.builtin(name)
        label = f"{name} r{radius}"
        want = EXPECTED["sweep-exhaustive"][label]

        def verify(res, want=want):
            s = _sweep_summary(res)
            missing = sorted(set(REQUIRED_RULES) - set(s["rules"]))
            if not s["passed"]:
                return s, "sweep reported failures"
            if s["checked"] != want:
                return s, f"{s['checked']} checks, expected {want}"
            if missing:
                return s, f"rules never checked: {missing}"
            return s, None

        ops.append(Op("sweep", label,
                      lambda d=d, r=radius: _suite_transport(d, r, 0, 0),
                      verify))
    return ops


def sweep_sampled(seed: int, scratch: Path) -> list[Op]:
    d = D.builtin("D2")
    least = EXPECTED["sweep-sampled"]["min_checks"]

    def verify(res):
        s = _sweep_summary(res)
        if not s["passed"]:
            return s, "sweep reported failures"
        if s["checked"] < least:
            return s, f"{s['checked']} checks, expected at least {least}"
        return s, None

    return [Op("sweep", "D2 r4 samples=24",
               lambda: _suite_transport(d, 4, 24, seed), verify)]


# -- membership ---------------------------------------------------------------

def level_matchings(d, c, c2, level_bound: int):
    """All level-preserving bijections between the stars of c and c2 (centers
    included), restricted to neighbors at level <= level_bound."""
    def star(center):
        return sorted((u for u in T.neighbors(d, center) if u[2] <= level_bound),
                      key=T.address_key)

    groups: dict[int, list] = {}
    images: dict[int, list] = {}
    for u in star(c):
        groups.setdefault(u[2], []).append(u)
    for u in star(c2):
        images.setdefault(u[2], []).append(u)
    if sorted(groups) != sorted(images):
        return
    pools = []
    for lv in sorted(groups):
        if len(groups[lv]) != len(images[lv]):
            return
        pools.append([list(zip(groups[lv], perm))
                      for perm in itertools.permutations(images[lv])])
    for combo in itertools.product(*pools):
        pairs = {c: c2}
        for block in combo:
            pairs.update(block)
        yield pairs


def membership_inputs(seed: int):
    """Seeded draws: words from the criterion-5 pool (length <= 3, support
    {1, 2, 3}) and matchings from the criterion-8 family (radius-1 stars,
    level bound 2, centers at distance <= 3 from the base)."""
    d = D.builtin("D0")  # input generation only; the ops get their own datum
    rng = random.Random(seed)
    pool = W.enumerate_words(d, 3, [1, 2, 3])
    words = rng.sample(pool, MEMBERSHIP_WORDS)
    t = T.ball(d, T.base_vertex(), 6)
    centers = [t.verts[vid] for vid in range(t.n)
               if t.dist[vid] <= 3 and t.level(vid) <= 2]
    family = [pairs for c in centers for c2 in centers if c[2] == c2[2]
              for pairs in level_matchings(d, c, c2, 2)]
    picked = rng.sample(range(len(family)), MEMBERSHIP_PIPELINES)
    matchings = [(k, family[k], rng.randrange(1 << 30)) for k in picked]
    return words, matchings


def membership(seed: int, scratch: Path) -> list[Op]:
    words, matchings = membership_inputs(seed)
    d = D.builtin("D0")
    base = T.base_vertex()
    want_i = EXPECTED["membership"]["selected_i"]

    def certificate(w, i):
        t = T.ball(d, base, 6)
        return E.check_Li(t, E.TreeMap.from_element(t, (d.ident0, w)), i)

    def verify_cert(cert):
        a, b = cert.condition_a, cert.condition_b
        s = {"valid": cert.valid, "a": [a.checked, a.skipped],
             "b": [b.checked, b.skipped]}
        return s, None if cert.valid else f"invalid: {cert.first_violation()}"

    ops = [Op("certificate", f"i={i} {W.word_to_json(w)}",
              lambda w=w, i=i: certificate(w, i), verify_cert)
           for i in (1, 2) for w in words]

    for k, pairs, pseed in matchings:
        def run(pairs=pairs, pseed=pseed):
            return E.density_pipeline(d, E.TreeMap(d, pairs), 6, n_samples=2,
                                      seed=pseed)

        def verify(res, pairs=pairs):
            # the commensuration probe is per-sample evidence with a search
            # bound, not a certificate: its verdicts enter the digest (so
            # they must repeat exactly) but only the certificate must hold
            ext, rep = res
            agrees = all(ext.pairs.get(v) == img for v, img in pairs.items())
            s = {"valid": rep.certificate.valid, "selected_i": rep.selected_i,
                 "agrees": agrees, "digest": digest(rep.to_json())}
            if not rep.certificate.valid:
                return s, f"invalid: {rep.certificate.first_violation()}"
            if rep.selected_i != want_i:
                return s, f"selected_i={rep.selected_i}, expected {want_i}"
            if not agrees:
                return s, "extension disagrees with phi on its domain"
            return s, None

        ops.append(Op("pipeline", f"matching #{k} seed={pseed}", run, verify))
    return ops


# -- tree build -----------------------------------------------------------------

def tree_build(seed: int, scratch: Path) -> list[Op]:
    want = EXPECTED["tree-build"]
    ops = []
    for cmd, name, radius in (("tree", "D0", 12), ("codist", "D0", 12),
                              ("tree", "D3", 10), ("codist", "D3", 10)):
        label = f"{cmd} {name} r{radius}"
        out = scratch / f"{cmd}-{name}-r{radius}.json"
        argv = [cmd, "--datum", name, "--radius", str(radius), "--out", str(out)]

        def verify(rc, out=out, exp=want[label]):
            data = out.read_bytes()
            out.unlink()  # the next run must write its own report
            report = json.loads(data)
            s = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(),
                 "ok": report.get("ok")}
            if "tree" in report:
                s["size"] = len(report["tree"]["vertices"])
            if rc != 0 or s["ok"] is not True:
                return s, f"exit code {rc}, ok={s['ok']}"
            if "size" in exp and s.get("size") != exp["size"]:
                return s, f"ball size {s.get('size')}, expected {exp['size']}"
            if s["sha256"] != exp["sha256"]:
                return s, "report bytes differ from the pinned digest"
            return s, None

        ops.append(Op("export", label, lambda argv=argv: cli.main(argv), verify))

    d3 = D.builtin("D3")
    radius = want["recovery_radius"]

    def recover():
        return T.level_from_degrees(T.ball(d3, T.base_vertex(), radius))

    def verify_recovery(rec):
        t = T.ball(d3, T.base_vertex(), radius)
        wrong = sum(1 for v, lv in rec.levels.items() if lv != v[2])
        missing = sum(1 for vid in range(t.n)
                      if t.dist[vid] <= radius - 3 and t.verts[vid] not in rec.levels)
        s = {"determined": len(rec.levels), "ambiguous": rec.ambiguous,
             "wrong": wrong, "missing_core": missing}
        if rec.ambiguous or wrong or missing:
            return s, f"ambiguous={rec.ambiguous} wrong={wrong} missing={missing}"
        return s, None

    ops.append(Op("recovery", f"levels D3 r{radius}", recover, verify_recovery))
    return ops


# workload name -> set-up; BENCHMARK.json says why each was chosen
WORKLOADS = {
    "sweep-exhaustive": sweep_exhaustive,
    "sweep-sampled": sweep_sampled,
    "membership": membership,
    "tree-build": tree_build,
}
