"""The perf guard's committed baseline names exactly the benches it runs.

``benchmarks/perf_guard.py --check`` compares each hot path against its
``BENCH_PERF.json`` entry; a bench with no entry, or an entry whose bench
was renamed or deleted, would fall out of that comparison silently.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _perf_guard():
    spec = importlib.util.spec_from_file_location(
        "perf_guard", REPO_ROOT / "benchmarks" / "perf_guard.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_baseline_names_every_bench_and_nothing_else():
    guard = _perf_guard()
    baseline = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
    assert guard.baseline_mismatch(baseline) == ([], [])


def test_mismatch_reports_both_directions():
    guard = _perf_guard()
    names = sorted(guard.HOT_PATHS)
    entries = {name: {"ops_per_sec": 1.0, "unit": "x"} for name in names[1:]}
    entries["retired_bench"] = {"ops_per_sec": 1.0, "unit": "x"}
    assert guard.baseline_mismatch({"hot_paths": entries}) == (
        [names[0]], ["retired_bench"]
    )
