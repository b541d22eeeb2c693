#!/usr/bin/env python3
"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default):
- one untraced run, one with speed probes and one traced run must pass
  every output check and give identical outputs (the later runs are
  checked against the untraced one);
- the traced self times must cover most of the traced run time, and the
  layer the seed-commit profile names must lead where one is named.
Then one expected value is corrupted and the op it guards must count as
failed, and BENCHMARK.json must name exactly the metrics the runs report.
Exits 0 when every gate holds.
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
from pathlib import Path

import run
import speed

MIN_COVERAGE = 0.8
# the layer with the largest self time in the seed-commit profile
LEADERS = {
    "sweep-sampled": "transport.verify_transport.self_s",
    "tree-build": "tree.level_from_degrees.self_s",
}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def traced_gates(name: str, scratch: Path, failures: list[str]) -> None:
    from tracing import Tracer

    reference: dict = {}
    plain = run.run_once(name, 0, scratch, reference)
    check(plain["failed"] == 0, f"untraced run passes its checks "
          f"({plain['failed']} of {plain['attempted']} failed)", failures)
    meter = speed.SpeedMeter()
    meter.start()
    try:
        metered = run.run_once(name, 0, scratch, reference, meter=meter)
    finally:
        meter.stop()
    check(metered["failed"] == 0 and metered["probes"],
          f"outputs with speed probes identical to untraced "
          f"({metered['failed']} of {metered['attempted']} differ or fail, "
          f"{len(metered['probes'])} probes)", failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_once(name, 0, scratch, reference, tracer)
    finally:
        tracer.uninstall()
    # the shared reference makes every traced output match the untraced one
    check(traced["failed"] == 0, f"traced outputs identical to untraced "
          f"({traced['failed']} of {traced['attempted']} differ or fail)",
          failures)
    coverage = tracer.self_total() / (traced["setup_s"] + traced["run_s"])
    check(coverage >= MIN_COVERAGE,
          f"traced self times cover {coverage:.3f} of traced time", failures)
    want = LEADERS.get(name)
    if want:
        snap = tracer.snapshot()
        lead = max((k for k in snap if k.endswith(".self_s")), key=snap.get)
        check(lead == want, f"{lead} leads (expected {want})", failures)
    check(all(s["end"] is not None for s in tracer.spans)
          and any(s["parent"] is not None for s in tracer.spans),
          f"{len(tracer.spans)} spans closed, with parents", failures)


def corrupted_gate(workloads, scratch: Path, failures: list[str]) -> None:
    expected = workloads.EXPECTED["sweep-exhaustive"]
    saved = expected["D3 r4"]
    expected["D3 r4"] = saved + 1
    try:
        res = run.run_once("sweep-exhaustive", 0, scratch, {})
    finally:
        expected["D3 r4"] = saved
    ops = [f["op"] for f in res["failures"]]
    check(ops == ["D3 r4"] and res["failed"] / res["attempted"] > 0,
          f"corrupted expected count fails exactly its op (failed: {ops})",
          failures)


def manifest_gate(workloads, failures: list[str]) -> None:
    from tracing import layer_metric_specs

    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in manifest["per_layer"]]
          == [m["name"] for m in layer_metric_specs()],
          "BENCHMARK.json per_layer matches the traced metrics", failures)
    check([w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names every workload", failures)
    check([m["name"] for m in manifest["end_to_end"]]
          == ["setup_s", "run_s", "peak_rss_mb"],
          "BENCHMARK.json end_to_end matches the untraced metrics", failures)


def main(argv: list[str]) -> int:
    run.import_library()
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)
    names = argv or list(workloads.WORKLOADS)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_selftest-") as tmp:
        scratch = Path(tmp)
        for name in names:
            print(name)
            traced_gates(name, scratch, failures)
        print("gates")
        corrupted_gate(workloads, scratch, failures)
        manifest_gate(workloads, failures)
    print("selftest " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
