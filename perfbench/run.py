#!/usr/bin/env python3
"""Benchmark of nagaotree batch jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/`.  One process runs one workload as a closed loop (one caller, one op
at a time), repeating whole runs of the workload's ops on freshly built
data until S seconds have passed.  Every op output is checked; an op that
raises, times out or gives a wrong output counts as failed.

--trace 0 prints the end-to-end metrics: setup_s (median of several
set-ups, each in a fresh interpreter), run_s (median run) and peak_rss_mb.
--trace 1 runs once untraced, then traced runs, and prints the per-layer
metrics of perfbench/tracing.py.  The last stdout line is one JSON object;
details (quartiles, failures, spans) go to .bench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_run"
SETUP_PROBES = 3  # per run of the workload
PROBE_TIMEOUT_S = 60
OP_TIMEOUT_S = 60


class OpTimeout(BaseException):
    """Raised inside an op that overran OP_TIMEOUT_S (BaseException, so the
    library's own handlers cannot swallow it)."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S}s")


def import_library() -> None:
    """Import nagaotree from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nagaotree
    except ImportError as exc:
        sys.exit(f"cannot import nagaotree from {src}: {exc}")
    if not Path(nagaotree.__file__).resolve().is_relative_to(src):
        sys.exit(f"nagaotree resolved to {nagaotree.__file__}, not {src}")


def run_once(name: str, seed: int, scratch: Path, reference: dict,
             tracer=None, meter=None) -> dict:
    """One run of the workload: set-up, then every op, each timed and checked.

    `reference` maps op labels to the first output summary seen in this
    process; a later run (traced or not) must reproduce it exactly.  With a
    running SpeedMeter, the op times exclude its probes, and `probes` holds
    the probe times taken during the run.
    """
    from workloads import WORKLOADS

    gc.collect()
    first_probe = len(meter.samples) if meter else 0
    if tracer is not None:
        span = tracer.open_span("run")
    t0 = time.perf_counter()
    ops = WORKLOADS[name](seed, scratch)
    setup_s = time.perf_counter() - t0
    run_s = 0.0
    failures = []
    for op in ops:
        err = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        spent = meter.spent if meter else 0.0
        t = time.perf_counter()
        try:
            res = op.run()
        except OpTimeout as exc:
            err = str(exc)
        except Exception as exc:  # a raising op is a failed op, never dropped
            err = f"{type(exc).__name__}: {exc}"
        finally:
            run_s += time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            if meter:
                run_s -= meter.spent - spent
        if err is None:
            try:
                summary, err = op.verify(res)
            except Exception as exc:
                err = f"verify raised {type(exc).__name__}: {exc}"
            if err is None and reference.setdefault(op.label, summary) != summary:
                err = "output differs from the first run of this op"
        if err is not None:
            failures.append({"kind": op.kind, "op": op.label, "error": err})
    if tracer is not None:
        tracer.close_span(span)
    return {"setup_s": setup_s, "run_s": run_s, "attempted": len(ops),
            "failed": len(failures), "failures": failures,
            "probes": meter.samples[first_probe:] if meter else []}


def probe_setup(name: str, seed: int, scratch: Path) -> list[float]:
    """Set-up times, each measured in a fresh interpreter so that the
    import of nagaotree is part of every sample."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"set-up failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(name: str, seed: int, seconds: float, scratch: Path) -> dict:
    # set-up probes are spread over the measured period, like the runs, so
    # that a slow spell of the machine weighs on both medians alike
    setups = []
    reference: dict = {}
    runs = []
    meter = speed.SpeedMeter()
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        setups += probe_setup(name, seed, scratch)
        meter.start()
        try:
            runs.append(run_once(name, seed, scratch, reference, meter=meter))
        finally:
            meter.stop()
    unscaled = [r["run_s"] for r in runs]
    scaled = [speed.scale(r["run_s"], r["probes"]) for r in runs]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail = {"setup_samples_s": setups,
              "run_unscaled_s": unscaled, "run_scaled_s": scaled,
              "run_unscaled_median_s": statistics.median(unscaled),
              "run_quartiles_s": quartiles(scaled),
              "speed_probe_median_s": statistics.median(meter.samples),
              "speed_probes": len(meter.samples)}
    return {"metrics": metrics, "runs": runs, "detail": detail}


def measure_traced(name: str, seed: int, seconds: float, scratch: Path,
                   spans_path: Path) -> dict:
    from tracing import Tracer, layer_metric_specs

    reference: dict = {}
    base = run_once(name, seed, scratch, reference)
    runs = [base]
    tracer = Tracer()
    snapshots = []
    traced_times = []
    coverage = []
    tracer.install()
    try:
        start = time.perf_counter()
        while not snapshots or time.perf_counter() - start < seconds:
            tracer.reset()
            r = run_once(name, seed, scratch, reference, tracer)
            runs.append(r)
            snapshots.append(tracer.snapshot())
            traced_times.append(r["run_s"])
            coverage.append(tracer.self_total() / (r["setup_s"] + r["run_s"]))
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    values = {key: statistics.median(s[key] for s in snapshots)
              for key in snapshots[0]}
    values["trace.overhead"] = statistics.median(traced_times) / base["run_s"]
    values["trace.coverage"] = statistics.median(coverage)
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in layer_metric_specs()}
    leaders = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")),
                     reverse=True)[:5]
    detail = {"untraced_run_s": base["run_s"], "traced_run_s": traced_times,
              "leading_self_s": [[k, v] for v, k in leaders],
              "spans": str(spans_path.relative_to(ROOT))}
    return {"metrics": metrics, "runs": runs, "detail": detail}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT_DIR / args.workload  # op outputs, overwritten by each run
    scratch.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds, scratch,
                             OUT_DIR / f"spans-{tag}.json")
    else:
        res = measure(args.workload, args.seed, args.seconds, scratch)
    runs = res["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "runs": len(runs),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures[:50],
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count()},
        "metrics": res["metrics"], "detail": res["detail"],
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        q1, q2, q3 = res["detail"]["run_quartiles_s"]
        print(f"  run_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
              f"{len(runs)} runs; unscaled median "
              f"{res['detail']['run_unscaled_median_s']:.4f} s")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of "
          f"{attempted} ops failed)")
    for f in failures[:5]:
        print(f"  FAILED {f['kind']} {f['op']}: {f['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
