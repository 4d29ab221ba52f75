"""Benchmark of the epcovar report engines: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``epcovar`` from ``src/`` of
that checkout. Workloads: scenario_conditioning, scenario_moments,
analytic_reports, infeasible_views (see README.md in this directory).

Set-up is timed in separate processes: two probe processes and then the
measuring process each import the package, generate the inputs and run one
warm-up operation, and ``setup_s`` is the median of the three times from
process start to readiness. The measuring process then runs the workload
(one client, closed loop) and checks every output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The same object,
with the detail behind it, is appended to ``results/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scenario_conditioning", "scenario_moments", "analytic_reports", "infeasible_views")
SETUP_SAMPLES = 3
DEADLINE_S = 175.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _spawn(args, probe: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless probing, its result."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {'probe ' if probe else ''}exited with code {code}")
    if probe:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "epcovar" / "__init__.py").is_file():
        print(f"bench: no epcovar package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_spawn(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = _spawn(args, False, deadline)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    detail = result.pop("detail")
    if not args.trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
    for problem in detail["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, **result, "detail": detail}
    with open(results_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
