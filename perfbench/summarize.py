"""Summarize benchmark runs of several seeds: median, quartiles and spread.

    python3 perfbench/summarize.py --seeds 1-10
    python3 perfbench/summarize.py --seeds 1-10 --write-baseline

Reads `.perfbench/results/<workload>-seed<n>-trace0.json` (written by
run.py) and prints, for each workload and metric, the median of the runs,
their quartiles as `statistics.quantiles(values, n=4)` gives them, and the
spread: the distance between the quartiles as a share of the median.
`--write-baseline` records the same in `perfbench/baseline.json`, with the
medians of the per-layer metrics of every traced run found.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END, WORK, WORKLOADS, environment

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def load(paths):
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths if path.exists()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 0,3,7")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    baseline = {"seeds": seeds, "environment": environment(), "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        records = load(WORK / "results" / f"{workload}-seed{seed}-trace0.json"
                       for seed in seeds)
        if len(records) >= 2:
            failed = sum(len(r["failures"]) for r in records)
            attempted = sum(r["attempted"] for r in records)
            entry["fail_ratio"] = failed / attempted
            print(f"{workload}: {len(records)} runs, {failed} of {attempted} jobs failed")
            for name, unit in END_TO_END:
                values = [r["end_to_end"][name] for r in records if "end_to_end" in r]
                s = stats(values)
                entry[name] = dict(s, unit=unit)
                print(f"  {name:11s} median {s['median']:.4f} {unit}  "
                      f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['spread']:.3f}")
        traced = [r for r in load(sorted((WORK / "results").glob(f"{workload}-seed*-trace1.json")))
                  if "per_layer" in r]
        if traced:
            entry["per_layer_median"] = {
                k: statistics.median(r["per_layer"][k] for r in traced)
                for k in traced[0]["per_layer"]}
            entry["per_layer_runs"] = len(traced)
        if entry:
            baseline["workloads"][workload] = entry
    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
