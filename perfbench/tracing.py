"""Per-layer tracing of nagaotree from the outside.

Every cross-module call inside `nagaotree` goes through a module alias
(`W.delta_mul`, `T.act`, `TR.gamma_xy`, ...) and every intra-module call
through a module global, so replacing a module or class attribute with a
timing wrapper sees every call without touching the library.

Each wrapped function aggregates its call count and self time (busy time
minus the time of wrapped callees).  Op-level functions (sweeps,
certificates, pipelines, exports, recovery) additionally record one span
each, with the id of the enclosing span as parent.  Spans stay in memory
until `write_spans`.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute path, emitted stats, records spans)
# Emitted stats are the per-layer metrics; calls and self_s are always
# measured so that coverage can be computed over every wrapped function.
TARGETS = (
    ("datum", "builtin", ("self_s",), False),
    ("algebra", "validate_action", ("self_s",), False),
    ("datum", "NagaoDatum.root", ("calls",), False),
    ("words", "delta_mul", ("calls", "self_s"), False),
    ("words", "payload_mul", ("calls", "self_s"), False),
    ("words", "gamma_mul", ("calls", "self_s"), False),
    ("words", "gamma0_conj", ("calls", "self_s"), False),
    ("words", "canon_coset", ("calls", "self_s"), False),
    ("tree", "ball", ("calls", "self_s", "vertices"), False),
    ("tree", "act", ("calls", "self_s"), False),
    ("tree", "act_word", ("calls", "self_s"), False),
    ("tree", "neighbors", ("calls", "self_s"), False),
    ("tree", "level_from_degrees", ("self_s", "determined"), True),
    ("horo", "horoball", ("calls", "self_s", "distinct_ratio"), False),
    ("horo", "component_graph", ("calls", "self_s"), False),
    ("horo", "in_same_horosphere", ("calls", "self_s"), False),
    ("transport", "verify_transport", ("self_s", "checks"), True),
    ("transport", "TransportReport.add", ("calls", "self_s"), False),
    ("transport", "delta_xy", ("calls", "self_s"), False),
    ("transport", "tau_XY", ("calls", "self_s"), False),
    ("transport", "gamma_xy", ("calls", "self_s", "distinct_ratio"), False),
    ("extension", "check_Li",
     ("calls", "self_s", "checked", "skipped_ratio"), True),
    ("extension", "extend_E", ("calls", "self_s"), False),
    ("extension", "greedy_extend", ("calls", "self_s"), False),
    ("extension", "commensuration_probe", ("calls", "self_s"), False),
    ("extension", "density_pipeline", ("calls", "self_s"), True),
    ("extension", "TreeMap.apply", ("calls", "self_s"), False),
    ("suites", "suite_transport", ("self_s",), True),
    ("twincodist", "synthesize_codistance", ("calls", "self_s"), False),
    ("twincodist", "verify_codist", ("calls", "self_s"), False),
    ("tree", "TruncatedTree.to_json", ("calls", "self_s"), True),
    ("twincodist", "CodistanceTable.to_json", ("calls", "self_s"), True),
    ("serialize", "dumps_canonical", ("calls", "self_s", "bytes"), False),
    ("cli", "main", ("calls", "self_s"), True),
)

UNITS = {"calls": "count", "self_s": "s", "vertices": "count",
         "determined": "count", "distinct_ratio": "ratio", "checks": "count",
         "checked": "count", "skipped_ratio": "ratio", "bytes": "bytes"}
# more distinct arguments per call means fewer repeated calls; more checks
# and more recovered levels mean more verified output
HIGHER_IS_BETTER = {"distinct_ratio", "checks", "checked", "determined"}

# whole-run metrics of the traced run itself
RUN_METRICS = (
    ("trace.overhead", "ratio", "lower"),   # traced run_s / untraced run_s
    ("trace.coverage", "ratio", "higher"),  # wrapped self time / traced run_s
)


def layer_metric_specs() -> list[dict]:
    """The per-layer metrics a traced run reports, in BENCHMARK.json form."""
    out = []
    for module, attr, stats, _ in TARGETS:
        for stat in stats:
            better = "higher" if stat in HIGHER_IS_BETTER else "lower"
            out.append({"name": f"{module}.{attr}.{stat}",
                        "unit": UNITS[stat], "better": better})
    out.extend({"name": n, "unit": u, "better": b} for n, u, b in RUN_METRICS)
    return out


class Stat:
    __slots__ = ("calls", "self_s", "count", "other", "distinct")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0    # primary extra count (vertices, checks, bytes, ...)
        self.other = 0    # secondary count (skipped instances)
        self.distinct = set()


# result hooks: fold a call's arguments and result into its Stat
def _ball_vertices(st, args, res):
    if id(res) not in st.distinct:  # balls are cached: count each one once
        st.distinct.add(id(res))
        st.count += res.n


def _determined(st, args, res):
    st.count += len(res.levels)


def _horoball_key(st, args, res):
    st.distinct.add((id(args[0]), args[1]))


def _gamma_xy_key(st, args, res):
    st.distinct.add((id(args[0]), args[1], args[2]))


def _transport_checks(st, args, res):
    st.count += res.to_json()["total"]


def _li_counts(st, args, res):
    st.count += res.condition_a.checked + res.condition_b.checked
    st.other += res.condition_a.skipped + res.condition_b.skipped


def _text_bytes(st, args, res):
    st.count += len(res.encode())


HOOKS = {
    "tree.ball": _ball_vertices,
    "tree.level_from_degrees": _determined,
    "horo.horoball": _horoball_key,
    "transport.gamma_xy": _gamma_xy_key,
    "transport.verify_transport": _transport_checks,
    "extension.check_Li": _li_counts,
    "serialize.dumps_canonical": _text_bytes,
}


class Tracer:
    """Installs timing wrappers over TARGETS; `uninstall` restores them."""

    def __init__(self):
        self.stats = {f"{m}.{a}": Stat() for m, a, _, _ in TARGETS}
        self.stack: list[list[float]] = []  # per active wrapper: child time
        self.span_stack: list[int] = []
        self.spans: list[dict] = []
        self.t_origin = time.perf_counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, _, spans in TARGETS:
            owner = importlib.import_module(f"nagaotree.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[name]
            key = f"{module}.{attr}"
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, key, spans))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def reset(self) -> None:
        for st in self.stats.values():
            st.reset()
        self.stack.clear()

    def _wrap(self, fn, key: str, spans: bool):
        st = self.stats[key]
        hook = HOOKS.get(key)
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if spans:
                sid = self.open_span(key)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                el = t1 - t0
                st.calls += 1
                st.self_s += el - frame[0]
                if stack:
                    stack[-1][0] += el
                if spans:
                    self.close_span(sid)
            if hook is not None:
                hook(st, args, res)
                if stack:  # hook time is tracing overhead, not the caller's
                    stack[-1][0] += perf() - t1
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ----------------------------------------------------------------

    def open_span(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": time.perf_counter() - self.t_origin,
                           "end": None})
        self.span_stack.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self.span_stack.pop()
        self.spans[sid]["end"] = time.perf_counter() - self.t_origin

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")

    # -- results ----------------------------------------------------------------

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def snapshot(self) -> dict[str, float]:
        """Current per-layer metric values, keyed by metric name."""
        out = {}
        for module, attr, stats, _ in TARGETS:
            key = f"{module}.{attr}"
            st = self.stats[key]
            for stat in stats:
                if stat == "calls":
                    v = st.calls
                elif stat == "self_s":
                    v = st.self_s
                elif stat == "distinct_ratio":
                    v = len(st.distinct) / st.calls if st.calls else 0.0
                elif stat == "skipped_ratio":
                    seen = st.count + st.other
                    v = st.other / seen if seen else 0.0
                else:
                    v = st.count
                out[f"{key}.{stat}"] = v
        return out
