"""The committed benchmark trajectory: every BENCH_*.json at the repository
root parses and carries, for both sides, every end-to-end metric of every
workload that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_names_every_metric_and_workload(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    doc = json.loads(path.read_text())
    assert set(doc["metrics"]) == metrics
    for side in ("parent", "change"):
        assert doc[side]["commit"]
    assert set(doc["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload, seeds in doc["workloads"].items():
        assert seeds, workload
        for seed, sides in seeds.items():
            for side in ("parent", "change"):
                summary = sides[side]
                assert summary["runs"] >= 1
                assert "failed" in summary and "attempted" in summary
                medians = summary["median"]
                assert set(medians) == metrics, (workload, seed, side)
                assert all(isinstance(v, (int, float)) and v > 0 for v in medians.values())
