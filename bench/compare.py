"""Compare the benchmark results of two commits.

    python3 bench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a ``bench/results`` directory filled by ``run.py`` in a
checkout of one commit. For every workload and metric it prints each side's
median and quartiles over its runs, the change of the median, and a verdict
for end-to-end metrics against the bound in ``BENCHMARK.json``:

- ``worse``: the new median is worse than the base median by more than the bound;
- ``unresolved``: the base runs' own quartile spread is wider than the bound;
- ``ok``: neither.

Per-layer metrics (from ``--trace 1`` runs) are listed without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(results_dir: Path) -> dict:
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for path in sorted(results_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            bucket = out.setdefault((path.stem, record["trace"]), {})
            for name, metric in record["metrics"].items():
                bucket.setdefault(name, []).append(metric["value"])
    return out


def _summary(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(Path(a)) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':<22}{'metric':<28}{'base p50 [q1, q3]':>34}{'new p50 [q1, q3]':>34}"
          f"{'change':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        for name in base[key]:
            if name not in new[key]:
                continue
            b1, b, b3 = _summary(base[key][name])
            n1, n, n3 = _summary(new[key][name])
            change = (n - b) / abs(b) if b else float("nan")
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                worse = change > bound if lower_better[name] else change < -bound
                spread = (b3 - b1) / abs(b) if b else float("inf")
                verdict = "worse" if worse else "unresolved" if spread > bound else "ok"
            print(f"{workload:<22}{name:<28}{b:>14.6g} [{b1:.4g}, {b3:.4g}]"
                  f"{n:>14.6g} [{n1:.4g}, {n3:.4g}]{change:>+9.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
