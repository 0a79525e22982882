#!/usr/bin/env python3
"""Fill a BENCH file's `summary` and `unresolved` from its `runs`.

    python3 scripts/bench_summary.py BENCH_32.json

Each run is one perfbench line of one side ("parent" or "change") on one workload and
seed; the two runs of a workload on one seed are a pair. BENCHMARK.json gives each
end-to-end metric's `better` direction and `bound`. The file is rewritten in place; every
other key is kept as it is.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METHOD = (
    "Per workload and end-to-end metric: the median of each side; the parent's quartiles "
    "by statistics.quantiles(n=4) with its default (exclusive) method; change_over_parent, "
    "the change's median over the parent's; the pairs where the change reads better by "
    "the metric's `better` direction, and the tied pairs; within_bound, whether the "
    "change's median is worse than the parent's by no more than the bound; and the "
    "parent's interquartile range over its median. Every figure is rounded to 4 places. "
    "A metric whose parent IQR over median exceeds its bound is listed as unresolved. "
    "This ends a drift: BENCH_29 and BENCH_30 took quartiles with method='inclusive', "
    "BENCH_28 and BENCH_31 with the default method, and BENCH_28 kept more decimals."
)


def _metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary row of one metric from its per-pair values, parent and change in pair
    order."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    sign = 1 if better == "higher" else -1
    ratio = c_med / p_med
    return {
        "parent_median": round(p_med, 4),
        "parent_q1": round(q1, 4),
        "parent_q3": round(q3, 4),
        "change_median": round(c_med, 4),
        "change_over_parent": round(ratio, 4),
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "tied_pairs": sum(c == p for p, c in zip(parent, change)),
        "within_bound": ratio >= 1 - bound if better == "higher" else ratio <= 1 + bound,
        "parent_iqr_over_median": round((q3 - q1) / p_med, 4),
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> tuple[dict, list[str]]:
    """(summary, unresolved) of `runs`, by the `end_to_end` metrics of BENCHMARK.json."""
    by_pair: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        by_pair.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run
    summary, unresolved = {}, []
    for workload, seeds in by_pair.items():
        pairs = [(s["parent"], s["change"]) for _, s in sorted(seeds.items())
                 if {"parent", "change"} <= s.keys()]
        sides = [run for pair in pairs for run in pair]
        row = {
            "pairs": len(pairs),
            "all_exit_0": all(r["exit"] == 0 for r in sides),
            "all_correct": all(r["correct"] for r in sides),
            "failed": {side: sum(pair[i]["failed"] for pair in pairs)
                       for i, side in enumerate(("parent", "change"))},
        }
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            row[name] = _metric([p[name] for p, _ in pairs], [c[name] for _, c in pairs],
                                metric["better"], bound)
            if row[name]["parent_iqr_over_median"] > bound:
                unresolved.append(f"{workload} {name}")
        summary[workload] = row
    return summary, unresolved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0], epilog=METHOD)
    parser.add_argument("file", type=Path, help="BENCH file holding `runs`")
    args = parser.parse_args(argv)
    doc = json.loads(args.file.read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    doc["summary"], doc["unresolved"] = summarize(doc["runs"], bench["end_to_end"])
    args.file.write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    print(f"{args.file}: unresolved {doc['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
