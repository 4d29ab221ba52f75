"""One benchmark process: set a workload up, say so, then measure it.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. Prints ``READY`` once
set-up is done (the import of ``epcovar``, input generation and one warm-up
operation), so the parent can time set-up from process start. With
``--probe`` it stops there. Otherwise it runs whole rounds of the workload's
operations for ``--seconds`` seconds of operation time, checks every
output, and prints one JSON line with its figures.

With ``--trace 1`` traced rounds alternate with untraced ones until both
together have run ``--seconds`` seconds; the per-layer figures come from the
traced rounds, and the difference between the traced and untraced medians
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from checks import Checker, fingerprint
from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS

WORK_ROOT = Path(__file__).resolve().parent / ".work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="stop after set-up")
    return p.parse_args(argv)


class Phase:
    """Operation times, per-layer figures and outcomes of one phase."""

    def __init__(self):
        self.times_ms: list[float] = []
        self.layers: list[dict] = []
        self.rows = 0
        self.busy_s = 0.0
        self.failed = 0
        self.wrong = 0
        self.checked: set[str] = set()


def run_round(workload, phase, checker, seen, problems, samples, tracer=None) -> None:
    """One pass over the workload's cycle; the first output of each input in
    a phase gets every check, and every recurrence must render the same."""
    for op in workload.round_ops():
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a program error fails this operation only
            out = None
            problems.append(f"{op.key}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        phase.busy_s += elapsed
        phase.times_ms.append(elapsed * 1e3)
        phase.rows += op.rows
        solves = None
        if tracer is not None:
            phase.layers.append(tracer.end_op())
            solves = tracer.solves
        if out is None:
            phase.failed += 1
            continue
        errs = []
        if op.key not in phase.checked:
            phase.checked.add(op.key)
            errs = checker.check(op, out, solves)
            samples[op.key.split(":")[0]] = (op, out, solves)
        fp = fingerprint(out)
        if seen.setdefault(op.key, fp) != fp:
            errs.append("output differs from an earlier occurrence of the same input")
        if errs:
            phase.failed += 1
            phase.wrong += 1
            problems.extend(f"{op.key}: {e}" for e in errs)


def measure(workload, args) -> dict:
    checker = Checker()
    seen, problems, samples = {}, [], {}
    untraced = Phase()
    phases = [untraced]
    if args.trace:
        # alternate untraced and traced rounds, so that drift in the machine
        # does not show up as tracing overhead
        traced = Phase()
        phases.append(traced)
        tracer = Tracer()
        while untraced.busy_s + traced.busy_s < args.seconds:
            run_round(workload, untraced, checker, seen, problems, samples)
            tracer.install()
            try:
                run_round(workload, traced, checker, seen, problems, samples, tracer)
            finally:
                tracer.uninstall()
    else:
        while untraced.busy_s < args.seconds:
            run_round(workload, untraced, checker, seen, problems, samples)
    missed = []
    for op, out, solves in samples.values():
        missed.extend(checker.self_check(op, out, solves))
    problems.extend(f"self-check: a perturbed output passed ({m})" for m in missed)

    if args.trace:
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in traced.layers), "unit": unit}
            for name, unit in LAYER_METRICS
        }
        overhead = statistics.median(traced.times_ms) - statistics.median(untraced.times_ms)
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    else:
        metrics = {
            "op_p50_ms": {"value": statistics.median(untraced.times_ms), "unit": "ms"},
            "views_per_s": {"value": untraced.rows / untraced.busy_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    return {
        "correct": not missed and not any(p.wrong for p in phases),
        "attempted": sum(len(p.times_ms) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "detail": {
            "op_samples": [len(p.times_ms) for p in phases],
            "op_times_ms": [p.times_ms for p in phases],
            "problems": problems[:50],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        workload.warm_up_op.run()
        print("READY", flush=True)
        if args.probe:
            return 0
        print(json.dumps(measure(workload, args)), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
