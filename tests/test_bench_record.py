"""``tools/bench_record.py``: the committed benchmark record, built from
synthetic ``bench/results`` files in a temporary checkout."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(seed, trace, op_ms, correct=True):
    return {
        "seed": seed, "seconds": 12, "trace": trace, "setup_samples_s": [0.5],
        "correct": correct, "attempted": 10, "failed": 1 if trace else 0,
        "metrics": {"op_p50_ms": {"value": op_ms, "unit": "ms"}},
        "detail": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"},
    }


@pytest.fixture()
def checkout(tmp_path):
    results = tmp_path / "bench" / "results"
    results.mkdir(parents=True)
    runs = [_record(3, 0, 40.0), _record(1, 0, 10.0), _record(2, 0, 20.0),
            _record(1, 1, 7.0, correct=False)]
    (results / "slow.jsonl").write_text("".join(json.dumps(r) + "\n" for r in runs))
    (results / "fast.jsonl").write_text(json.dumps(_record(1, 0, 1.5)) + "\n")
    src = tmp_path / "src" / "epcovar"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text(
        "import math\nfrom os import path\nfrom .a import f, g\nfrom .b import h\n"
    )
    (src / "a.py").write_text("def f():\n    pass\n\n\ndef g():\n    pass\n")
    return tmp_path


def test_summary_per_workload_and_tracing_mode(bench_record, checkout):
    record = bench_record.build_record("demo", 61.5, checkout)
    assert record["label"] == "demo"
    assert sorted(record["workloads"]) == ["fast", "slow"]
    slow = record["workloads"]["slow"]
    assert sorted(slow) == ["traced", "untraced"]
    untraced, traced = slow["untraced"], slow["traced"]
    assert untraced["runs"] == 3 and untraced["seeds"] == [1, 2, 3]
    assert untraced["correct"] is True and traced["correct"] is False
    assert (untraced["attempted"], untraced["failed"]) == (30, 0)
    assert (traced["attempted"], traced["failed"]) == (10, 1)
    # with three runs the quartiles are the extremes
    op = {mode: slow[mode]["metrics"]["op_p50_ms"] for mode in slow}
    assert op["untraced"] == {"unit": "ms", "median": 20.0, "q1": 10.0, "q3": 40.0}
    assert op["traced"] == {"unit": "ms", "median": 7.0, "q1": 7.0, "q3": 7.0}
    assert list(record["workloads"]["fast"]) == ["untraced"]


def test_code_and_environment(bench_record, checkout):
    record = bench_record.build_record("demo", 61.5, checkout)
    # 4 lines of __init__ plus 6 of a.py; only the relative imports count as exports
    assert record["code"] == {"src_lines": 10, "exports": 3, "tier1_s": 61.5}
    assert record["environment"] == {
        "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
    }


def test_no_results_is_an_error(bench_record, tmp_path):
    (tmp_path / "bench" / "results").mkdir(parents=True)
    with pytest.raises(SystemExit):
        bench_record.build_record("demo", 1.0, tmp_path)
