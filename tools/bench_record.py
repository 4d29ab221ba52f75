"""Write a committed benchmark record, ``BENCH_<label>.json``, at the repo root.

    python3 tools/bench_record.py LABEL TIER1_SECONDS [CHECKOUT]

``CHECKOUT`` (default: this repository) is a checkout whose
``bench/results/*.jsonl`` were filled by ``bench/run.py``. The record holds,
per workload and per tracing mode, the run count, the seeds, whether every
run was correct, and the median and quartiles of every metric over the runs
(quartiles as ``bench/compare.py`` takes them). It also holds the machine
and library versions the runs recorded, the checkout's ``src/`` line count,
its package export count, and the tier-1 suite's wall time in seconds,
which the caller measures and passes.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from compare import _summary  # noqa: E402

_ENVIRONMENT = ("nproc", "python", "numpy", "scipy")


def _num(v: float) -> float:
    return float(f"{v:.6g}")


def _exports(init: Path) -> int:
    """Names the package ``__init__`` imports from its own modules."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return sum(
        len(node.names) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
    )


def _workload(records: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    metrics = {}
    for name, vals in values.items():
        q1, median, q3 = _summary(vals)
        metrics[name] = {"unit": units[name], "median": _num(median),
                         "q1": _num(q1), "q3": _num(q3)}
    return {
        "runs": len(records),
        "seeds": sorted(r["seed"] for r in records),
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def build_record(label: str, tier1_s: float, checkout: Path) -> dict:
    runs: dict[str, dict[str, list[dict]]] = {}
    environment: dict[str, set] = {key: set() for key in _ENVIRONMENT}
    for path in sorted((checkout / "bench" / "results").glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            mode = "traced" if record["trace"] else "untraced"
            runs.setdefault(path.stem, {}).setdefault(mode, []).append(record)
            for key in _ENVIRONMENT:
                environment[key].add(record["detail"][key])
    if not runs:
        raise SystemExit(f"no benchmark results under {checkout / 'bench' / 'results'}")
    src = checkout / "src" / "epcovar"
    return {
        "label": label,
        "environment": {
            key: sorted(vals)[0] if len(vals) == 1 else sorted(vals)
            for key, vals in environment.items()
        },
        "code": {
            "src_lines": sum(
                len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.glob("*.py"))
            ),
            "exports": _exports(src / "__init__.py"),
            "tier1_s": tier1_s,
        },
        "workloads": {
            workload: {mode: _workload(records) for mode, records in sorted(modes.items())}
            for workload, modes in sorted(runs.items())
        },
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    label, tier1_s = argv[0], float(argv[1])
    checkout = Path(argv[2]) if len(argv) == 3 else ROOT
    record = build_record(label, tier1_s, checkout)
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
