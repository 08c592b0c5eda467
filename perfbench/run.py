"""Benchmark of `beamsim run` on two fixed-work workloads.

    python3 perfbench/run.py --workload europe71-k2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from `src/` of the
same checkout.  One round is one in-process `beamsim.cli.main(["run", ...])`
call with a fixed seed, iteration count and K list; rounds repeat until
`--seconds` have passed.  Every BLAS/OpenMP pool is pinned to one thread and
the run uses one worker process, so nothing but the simulator competes for
the two cores of a small machine.

With `--trace 0` the last stdout line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics from rounds in which every public beamsim
function and method is wrapped (see tracer.py).  A traced run starts with an
untraced round and then alternates traced and untraced rounds, at least
three traced and two more untraced ones, so the tracing overhead shows.
Either way the first round's run directory is checked against computations
made apart from the program (see checks.py) and every later round must
reproduce it byte for byte.
"""

from __future__ import annotations

import os
import sys

# Must precede the first numpy import anywhere in this process.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "beamsim" / "data"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import beamsim  # noqa: E402
from beamsim import cli  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, summarise  # noqa: E402

DENSITY = 2.5e-3
SETUP_SAMPLES_PER_ROUND = 2
SETUP_CODE = (
    "import sys, beamsim\n"
    "beamsim.load_config(sys.argv[1]); beamsim.load_beams(sys.argv[2]); "
    "beamsim.load_modcod(sys.argv[3])\n"
)


@dataclass(frozen=True)
class Workload:
    layout: str
    cluster_sizes: tuple
    iterations: int          # Monte Carlo iterations per round
    traces: bool             # write schedule/SINR traces
    config_changes: dict = field(default_factory=dict)

    @property
    def cell_iterations(self) -> int:
        return len(self.cluster_sizes) * self.iterations


WORKLOADS = {
    # The paper's full-scale experiment; the literal `paper` regularization
    # collapses at 71 beams, so this uses `normalized`.
    "europe71-k2": Workload("beams_europe71.json", (2,), 1, False,
                            {"regularization_mode": "normalized"}),
    # The acceptance-suite cells: the K sweep rebuilds deployment and channel
    # per K and writes the large trace files.
    "hex19-ksweep-trace": Workload("beams_hex19.json", (1, 2, 4, 8), 2, True),
}

END_TO_END = {"iterations_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
TRACED_MODULES = ("cli", "engine", "scenario", "channel", "clustering", "geometry",
                  "scheduling", "precoding", "link_adaptation")
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in TRACED_MODULES},
    **{f"{m}.calls": "count" for m in ("channel", "clustering", "geometry", "precoding")},
    "scenario.users": "count",
    "scheduling.frames": "count",
    "engine.write_s": "s",
    "engine.write_mb": "MiB",
    "trace.overhead_s": "s",
}
MIN_TRACED_ROUNDS = 3
MIN_WARM_UNTRACED_ROUNDS = 2     # untraced rounds after round 0, the overhead baseline


def result_line(correct, attempted, failed, values, units):
    """The benchmark's final stdout line; `values` must cover every name in `units`."""
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def write_config(workload: Workload, out_dir: Path):
    """Scenario config for the workload: the bundled one with the workload's changes."""
    config = yaml.safe_load((DATA / "config_default.yaml").read_text())
    config.update(workload.config_changes)
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return config, path


def run_argv(workload: Workload, config_path, seed, run_dir):
    argv = ["run", "--config", str(config_path), "--beams", str(DATA / workload.layout),
            "--modcod", str(DATA / "modcod_dvbs2x.csv"), "--seed", str(seed),
            "--scheduler", "both",
            "--cluster-size", ",".join(str(k) for k in workload.cluster_sizes),
            "--density", repr(DENSITY), "--iterations", str(workload.iterations),
            "--threads", "1", "--out", str(run_dir)]
    return argv if workload.traces else argv + ["--no-traces"]


def setup_sample(config_path, workload: Workload):
    """Wall time of a fresh interpreter importing beamsim and loading the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    args = [sys.executable, "-c", SETUP_CODE, str(config_path), str(DATA / workload.layout),
            str(DATA / "modcod_dvbs2x.csv")]
    start = time.perf_counter()
    subprocess.run(args, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def digest(run_dir: Path):
    """{relative path: sha256} of every file in a run directory."""
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[str(path.relative_to(run_dir))] = h.hexdigest()
    return out


def differing_cells(first, other, workload: Workload):
    """Cluster sizes whose files differ between two run-directory digests."""
    changed = {p for p in first.keys() | other.keys() if first.get(p) != other.get(p)}
    cells = set()
    for path in changed:
        head = path.split(os.sep)[0]
        if head.startswith("K") and "_rho" in head:
            cells.add(int(head[1:head.index("_rho")]))
        else:                                   # summary, gains, manifest: every cell
            cells.update(workload.cluster_sizes)
    return cells


@dataclass
class Round:
    wall: float
    traced: bool
    differs: set             # cluster sizes whose output differs from round 0
    layers: dict | None = None
    spans: list | None = None


def run_round(argv, run_dir: Path, traced: bool, cell_iterations: int):
    if run_dir.exists():
        shutil.rmtree(run_dir)
    tracer = Tracer() if traced else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        with tracer:
            cli.main(argv)
        wall = time.perf_counter() - start
    if not traced:
        return Round(wall, traced, set())
    return Round(wall, traced, set(), layer_metrics(tracer, wall, cell_iterations), tracer.spans)


def layer_metrics(tracer: Tracer, wall, cell_iterations):
    """Per-cell-iteration layer figures of one traced round."""
    self_s, calls, write_s = summarise(tracer.spans)
    values = {f"{m}.self_s": self_s.get(m, 0.0) for m in TRACED_MODULES}
    values.update({f"{m}.calls": calls.get(m, 0) for m in ("channel", "clustering",
                                                           "geometry", "precoding")})
    values["scenario.users"] = tracer.counts["scenario.users"]
    values["scheduling.frames"] = tracer.counts["scheduling.frames"]
    values["engine.write_s"] = write_s
    values = {name: v / cell_iterations for name, v in values.items()}
    values["trace.wall_s"] = wall / cell_iterations
    return values


def write_spans(path: Path, rounds):
    """All traced rounds' spans, times relative to each round's first span."""
    with open(path, "w") as fh:
        fh.write("round,index,parent,module,function,start_s,end_s\n")
        for r, rnd in enumerate(rounds):
            if not rnd.spans:
                continue
            t0 = rnd.spans[0].start
            for i, s in enumerate(rnd.spans):
                fh.write(f"{r},{i},{s.parent},{s.module},{s.name},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f}\n")


def measure(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    out_dir = OUT / workload_name
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    master_seed = seed % 2**31
    config, config_path = write_config(workload, out_dir)

    # Set-up samples are spread over the run, between rounds, so that they see
    # the same machine load as the rounds do.
    first_dir = out_dir / "round0"
    rounds, first, setup_samples = [], None, []
    start = time.perf_counter()
    while True:
        if not trace:
            setup_samples += [setup_sample(config_path, workload)
                              for _ in range(SETUP_SAMPLES_PER_ROUND)]
        traced = trace and len(rounds) % 2 == 1
        run_dir = out_dir / f"round{len(rounds)}"
        argv = run_argv(workload, config_path, master_seed, run_dir)
        rnd = run_round(argv, run_dir, traced, workload.cell_iterations)
        if first is None:
            # A user runs one `beamsim run` per process; later rounds start on a
            # heap the first one left fragmented and peak about 18 % higher.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            first = digest(run_dir)
        else:
            rnd.differs = differing_cells(first, digest(run_dir), workload)
            shutil.rmtree(run_dir, ignore_errors=True)
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds and (not trace or (
                sum(r.traced for r in rounds) >= MIN_TRACED_ROUNDS
                and sum(not r.traced for r in rounds[1:]) >= MIN_WARM_UNTRACED_ROUNDS)):
            break

    spec = checks.RunSpec(first_dir, config, DATA / workload.layout, DATA / "modcod_dvbs2x.csv",
                          workload.cluster_sizes, DENSITY, workload.iterations, master_seed,
                          workload.traces)
    failures = checks.check_run(spec, np.random.default_rng(seed % 2**63))
    write_mb = sum(p.stat().st_size for p in first_dir.rglob("*") if p.is_file()) / 2**20
    shutil.rmtree(first_dir, ignore_errors=True)

    bad = set(failures.reasons)
    attempted = failed = 0
    for rnd in rounds:
        attempted += workload.cell_iterations
        failed += len(bad | {(k, it) for k in rnd.differs for it in range(workload.iterations)})
    for key in sorted(failures.reasons):
        print(f"perfbench: K={key[0]} iteration {key[1]}: {'; '.join(failures.reasons[key])}",
              file=sys.stderr)
    differs = set().union(*(r.differs for r in rounds))
    if differs:
        print(f"perfbench: later rounds differ from round 0 for K in {sorted(differs)}",
              file=sys.stderr)
    correct = not failures.wrong_outputs() and not differs

    if trace:
        traced_rounds = [r.layers for r in rounds if r.traced]
        values = {name: statistics.median(layers[name] for layers in traced_rounds)
                  for name in traced_rounds[0]}
        values["engine.write_mb"] = write_mb / workload.cell_iterations
        # Round 0 runs cold and is left out of the baseline.
        warm = [r.wall for r in rounds[1:] if not r.traced]
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(warm) / workload.cell_iterations)
        units = PER_LAYER
        write_spans(out_dir / "spans.csv", rounds)
    else:
        values = {
            "iterations_per_s": statistics.median(workload.cell_iterations / r.wall
                                                  for r in rounds),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(f"perfbench: {workload_name} seed {seed}: {len(rounds)} rounds, walls "
          + " ".join(f"{r.wall:.2f}{'T' if r.traced else ''}" for r in rounds), file=sys.stderr)
    return result_line(correct, attempted, failed, values, units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(beamsim.__file__).resolve().parent != SRC / "beamsim":
        sys.exit(f"perfbench: imported beamsim from {beamsim.__file__}, not from {SRC}")
    print(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
