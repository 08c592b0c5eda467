"""Reference timing of a 10-iteration 19-beam `run_cell` at 1 and 2 workers.

    python3 perfbench/reference.py

Not a benchmark workload: two worker processes fill both cores of a
two-core machine, so the figure says how the process pool scales, not how
fast the simulator is.  Prints the median wall time per worker count.
"""

from __future__ import annotations

import statistics
import sys
import time

import run  # pins BLAS threads (inherited by the workers) and puts src/ on sys.path

from beamsim import engine, load_scenario

ITERATIONS = 10
CLUSTER_SIZE = 2
DENSITY = 2.5e-3
REPEATS = 3


def main():
    scenario = load_scenario(run.DATA / "config_default.yaml", run.DATA / "beams_hex19.json",
                             run.DATA / "modcod_dvbs2x.csv")
    medians = {}
    for workers in (1, 2):
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            engine.run_cell(scenario, CLUSTER_SIZE, DENSITY, iterations=ITERATIONS,
                            threads=workers)
            walls.append(time.perf_counter() - start)
        medians[workers] = statistics.median(walls)
        print(f"run_cell hex19 K={CLUSTER_SIZE} {ITERATIONS} iterations, {workers} worker(s): "
              f"median {medians[workers]:.2f} s of {' '.join(f'{w:.2f}' for w in walls)}")
    print(f"speed-up at 2 workers: {medians[1] / medians[2]:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
