"""Summarise benchmark runs of a parent commit and a change into BENCH_<id>.json.

    python3 tools/bench_record.py --id 17 \
        --parent A/perfbench/out/results/*-trace0.json ... \
        --change B/perfbench/out/results/*-trace0.json ...

Each input is one result file that ``perfbench/run.py`` wrote (one workload,
one seed, one run).  Pass every run of both sides; runs of one workload and
seed are pooled per side.  The output holds, per workload and seed and for
each side, the median over runs of every end-to-end metric that
``BENCHMARK.json`` names, the per-run values, and the failed and attempted
request counts; plus each side's commit and source digest and the
environment the runs report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]]


def summarise(paths: list[str], metrics: list[str]) -> tuple[dict, dict]:
    """(per workload and seed summaries, the side's identity) of one side."""
    runs: dict[tuple[str, int], list[dict]] = {}
    identity = {"commit": set(), "src_sha256": set()}
    envs = set()
    for path in paths:
        result = json.loads(Path(path).read_text())
        env = result["env"]
        runs.setdefault((env["workload"], env["seed"]), []).append(result)
        identity["commit"].add(env["commit"])
        identity["src_sha256"].add(env["src_sha256"])
        envs.add((env["python"], env["nproc"], env["seconds"]))
    summary: dict = {}
    for (workload, seed), results in sorted(runs.items()):
        values = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
        summary.setdefault(workload, {})[str(seed)] = {
            "runs": len(results),
            "median": {m: statistics.median(v) for m, v in values.items()},
            "values": values,
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
        }
    side = {k: sorted(v) for k, v in identity.items()}
    side["env"] = [{"python": p, "nproc": n, "seconds": s} for p, n, s in sorted(envs)]
    return summary, side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--id", required=True, help="the suffix of BENCH_<id>.json")
    parser.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--out", default=None, help="output path (default: BENCH_<id>.json "
                                                    "at the repository root)")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    parent, parent_side = summarise(args.parent, metrics)
    change, change_side = summarise(args.change, metrics)
    if {w: sorted(s) for w, s in parent.items()} != {w: sorted(s) for w, s in change.items()}:
        print("bench_record: the two sides ran different workloads or seeds", file=sys.stderr)
        return 2
    doc = {
        "id": args.id,
        "source": "perfbench/run.py result files",
        "transcribed": False,
        "metrics": metrics,
        "parent": parent_side,
        "change": change_side,
        "workloads": {
            w: {seed: {"parent": parent[w][seed], "change": change[w][seed]}
                for seed in parent[w]}
            for w in sorted(parent)
        },
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.id}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
