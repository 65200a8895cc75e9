"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sizing exchange --seeds 1-10 [--log runs.jsonl]

Each run lasts BENCHMARK.json's run_seconds, as the benchmark's runs do.
The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, the figure
each end-to-end metric's bound in BENCHMARK.json is set against.  Runs are
sequential, one process at a time; --log appends every run's JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from run import ROOT, run_child


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--log", type=Path)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            try:
                res = run_child(wl, seed, seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            res["wall_s"] = time.perf_counter() - start
            runs.append(res)
            if args.log:
                with args.log.open("a") as fh:
                    fh.write(json.dumps({"workload": wl, "seed": seed, **res}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{wl}: runs={len(runs)} correct={all(r['correct'] for r in runs)} failed/attempted={sorted(shares)}"
              f" wall per run {statistics.median(r['wall_s'] for r in runs):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:28s} median {median:12.6g} {runs[0]['metrics'][name]['unit']:6s} spread {100 * spread:6.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
