"""mahlerlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify-mixed --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports mahlerlab from ``src/``. Load
comes from this one process: every call goes through ``mahlerlab.cli.main``
in-process with ``--jobs 1``. Every output is checked against
``reference.json``.

With ``--trace 0`` it calls the workload for ``--seconds`` seconds, with
tracing off, and prints the end-to-end metrics. With ``--trace 1`` it makes
every call of one fixed pass (the whole corpus, or one search) twice, untraced
and then traced, and prints the per-layer metrics of the traced calls. The
last line of stdout is the result; the line before it holds the environment,
sample counts and any failures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MAX_FAILURES_SHOWN = 5
# calibrate() runs CALIBRATION_STEPS steps; CALIBRATION_REF_S is their time on
# the reference machine (2-core Xeon, Python 3.11, mpmath's pure-Python
# backend) when no neighbour loads it
CALIBRATION_STEPS = 300
CALIBRATION_REF_S = 0.002


def _parser() -> argparse.ArgumentParser:
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description="mahlerlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def setup_seconds(session) -> float:
    """Wall time of a fresh interpreter that imports mahlerlab, loads the
    corpus and makes the warm-up call."""
    corpus = str(session.corpus_path) if session.items else "-"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), corpus, *session.warmup_argv()]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self, session):
        self.session = session
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def add(self, index: int, failure: str | None) -> None:
        n = self.session.items_per_call()
        self.attempted += n
        if failure is not None:
            self.failed += n
            if len(self.failures) < MAX_FAILURES_SHOWN:
                label = self.session.items[index].id if self.session.items else "search"
                self.failures.append(f"{label}: {failure}")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def calibrate() -> float:
    """Seconds that a fixed piece of mpmath arithmetic takes now: the kind of
    work the program does most, but none of the program's own code."""
    import mpmath as mp

    t0 = time.perf_counter()
    with mp.workprec(160):
        x, c = mp.mpf(1) / 3, mp.mpf(2) / 7
        for _ in range(CALIBRATION_STEPS):
            x = (x * x + c) / (x + 1)
    return time.perf_counter() - t0


def timed_run(session, seconds: float):
    from workloads import percentile

    setup = [setup_seconds(session) for _ in range(SETUP_SAMPLES)]
    tally = Tally(session)
    per_call = session.items_per_call()
    calls = session.calls_per_pass()
    # On a shared machine the speed drifts by tens of percent, over seconds
    # and over minutes, and no run is long enough to average that out. So a
    # calibration runs before and after every call, and the call's reference
    # time is its time scaled by CALIBRATION_REF_S over the mean of the two:
    # what the call would have taken at the reference machine's unloaded
    # speed. Each call keeps the median over the passes that reached it.
    raw = [[] for _ in range(calls)]
    scaled = [[] for _ in range(calls)]
    speeds = []
    before = calibrate()
    start = time.perf_counter()
    i = 0
    while True:
        index = i % calls
        dt, failure, _ = session.run(index)
        after = calibrate()
        tally.add(index, failure)
        speed = CALIBRATION_REF_S / ((before + after) / 2)
        speeds.append(speed)
        raw[index].append(dt)
        scaled[index].append(dt * speed)
        before = after
        i += 1
        if i >= calls and time.perf_counter() - start + raw[i % calls][-1] > seconds:
            break
    ref_ms = [statistics.median(times) * 1000.0 / per_call for times in scaled]
    raw_ms = [statistics.median(times) * 1000.0 / per_call for times in raw]
    metrics = {
        "items_per_ref_s": {"value": 1000.0 * len(ref_ms) / sum(ref_ms), "unit": "1/s"},
        "item_p50_ref_ms": {"value": statistics.median(ref_ms), "unit": "ms"},
        "item_p90_ref_ms": {"value": percentile(ref_ms, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    detail = {
        "items_per_s": 1000.0 * len(raw_ms) / sum(raw_ms),
        "item_p50_ms": statistics.median(raw_ms),
        "item_p90_ms": percentile(raw_ms, 90),
        "latency_samples": len(ref_ms),
        "latency_unit": "one corpus record" if per_call == 1
        else f"one search call, divided by its {per_call} candidates",
        "calls": i,
        "passes": i / calls,
        "speed_vs_reference": {"median": statistics.median(speeds),
                               "min": min(speeds), "max": max(speeds)},
        "setup_samples_s": setup,
    }
    return tally, metrics, detail


def traced_run(session):
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import observe_search

    tally = Tally(session)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    records = 0
    # each call runs untraced and then traced, back to back, so that both
    # see the same machine load and the same warm caches
    for index in range(session.calls_per_pass()):
        dt, failure, _ = session.run(index)
        tally.add(index, failure)
        untraced_s += dt
        with tracer.installed():
            tracer.item = index
            with tracer.span("item"):
                dt, failure, out = session.run(index)
        tally.add(index, failure)
        traced_s += dt
        if session.command == "search" and failure is None:
            records += len(observe_search(out))
    items = session.calls_per_pass() * session.items_per_call()
    metrics, not_applicable = layer_metrics(tracer, items, records, untraced_s / traced_s)
    detail = {"traced_items": items, "spans": len(tracer.names),
              "untraced_s": untraced_s, "traced_s": traced_s, "not_applicable": not_applicable}
    return tally, metrics, detail


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "mahlerlab" / "__init__.py").is_file():
        print(f"mahlerlab sources not found under {src}", file=sys.stderr)
        return 2
    from workloads import Session, environment, load_reference, pin_hash_seed

    pin_hash_seed()
    # one process, no threads: keep numpy's BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    reference = load_reference(HERE / "reference.json")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, reference, workdir)
        session.warm_up()
        if args.trace:
            tally, metrics, detail = traced_run(session)
        else:
            tally, metrics, detail = timed_run(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    env = environment()
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        env=env,
        # every reference and figure assumes mpmath's pure-Python backend;
        # gmpy2 changes every number, so such results are not comparable
        comparable=env["mpmath_backend"] == reference["environment"]["mpmath_backend"],
        failed_ratio=tally.failed / tally.attempted,
        failures=tally.failures,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
