"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload europe71-k2 --seeds 1-10

Runs `perfbench/run.py --trace 0` once per seed, one after another, for
`run_seconds` of BENCHMARK.json, and prints every run's result and, for
every metric, the median, the quartiles (statistics.quantiles, n=4) and the
interquartile distance as a share of the median, next to the bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        results.append(result)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)

    print(f"{args.workload}, {len(results)} runs of {seconds} s")
    for name in results[0]["metrics"]:
        median, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
        print(f"  {name:18s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {rel:.1%}  (bound {bounds.get(name, float('nan')):.0%})")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share(s): {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
