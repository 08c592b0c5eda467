"""Monte Carlo orchestration.

The unit of work is one (density, iteration): deploy its users and
synthesize their channels once, then cluster, sectorise and run each
requested scheduler on them for every cluster size of the sweep, so policy
and cluster-size comparisons are paired.  The clusters are rows of one
padded table (beam b's cluster c at `first_cluster[b] + c`) with a sector
label each, and frame f of a schedule serves the rows
`first_cluster + selection[f]`.  A policy's frames are precoded in blocks
of `_CHUNK_ROWS // (N_B * N_B * K)`: a block gathers its clusters' members
(about 1 MiB of channel vectors), forms their equivalent vectors, and
solves and scores all of its frames in one call per stage, each frame to
the bit as on its own.  Every RNG stream derives from (master_seed,
iteration, purpose), so the run is reproducible at any worker count; each
cell's rows are written an iteration at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import channel as chn
from . import clustering, geometry, precoding, scheduling
from .errors import GeometryError, ValidationError
from .link_adaptation import aggregate, cluster_rates
from .scenario import Scenario, check_density_supports_clusters, deploy_users

# purpose tags for the per-iteration seed streams
_SEED_DEPLOY, _SEED_PHASES, _SEED_RANDOM, _SEED_GSA = 0, 1, 2, 3

POLICIES = ("random", "gsa")


def iteration_seed(master_seed: int, iteration: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(int(master_seed), int(iteration), int(purpose)))


# ---------------------------------------------------------------------------
# Per-iteration pipeline
# ---------------------------------------------------------------------------

@dataclass
class IterationDraw:
    """One (density, iteration)'s users and channel, shared by every K and policy."""

    deployment: np.recarray   # deploy_users' records, a row per user, beam after beam
    h: np.ndarray             # (n_users, N_B) channel matrix with the iteration's phases
    deployment_hash: str
    channel_hash: str
    nonprec: np.ndarray       # (n_users,) SINR without precoding


@dataclass
class IterationState:
    """One cluster size's clusters and sectors on a draw, shared by all its policies."""

    draw: IterationDraw
    clusters: np.ndarray      # (C, K) global user ids per cluster, -1 past its size
    cluster_sizes: np.ndarray # (C,) members per cluster
    n_clusters: np.ndarray    # (N_B,) clusters per beam
    first_cluster: np.ndarray # (N_B,) beam b's cluster c is row first_cluster[b] + c
    sector: np.ndarray        # (C,) sector of each cluster's barycentre in its beam


@dataclass
class PolicyIterationData:
    """One policy's frames in one iteration; a table maps column name -> 1-D array."""

    rates: np.ndarray                     # (n_frames, N_B) bit/s/Hz
    loss_flags: np.ndarray                # (n_frames,) bool
    sectors: np.ndarray                   # (n_frames,) sector label (NO_SECTOR for random)
    traces: dict = field(default_factory=dict)  # file name -> table, when traces are kept
    user_map: dict | None = None          # a row per user: mean SINRs over its frames


@dataclass
class IterationResult:
    iteration: int
    deployment_hash: str
    channel_hash: str
    per_policy: dict
    channel_map: tuple | None = None      # the draw's (deployment, |h| in dB) when asked for


_CELL_ERRORS = (ValidationError, GeometryError, np.linalg.LinAlgError)


def _db(x):
    return 10.0 * np.log10(np.maximum(x, 1e-300))


def draw_iteration(scenario: Scenario, density: float, iteration: int) -> IterationDraw:
    """Deploy one iteration's users and synthesize their channels."""
    cfg = scenario.config
    satellite = scenario.satellite()
    dep = deploy_users(scenario.beams, density,
                       iteration_seed(cfg.master_seed, iteration, _SEED_DEPLOY), satellite)
    phases = chn.draw_phases(
        len(scenario.beams),
        np.random.default_rng(iteration_seed(cfg.master_seed, iteration, _SEED_PHASES)),
    )
    rf = chn.beam_rf_parameters(scenario.beams, satellite, cfg.tx_aperture_efficiency)
    h = chn.channel_matrix(dep.lat, dep.lon, dep.slant_range_m, dep.beam_idx, rf, satellite,
                           cfg, phases)
    return IterationDraw(
        deployment=dep,
        h=h,
        # hashed from the arrays' own buffers, without a bytes copy
        deployment_hash=hashlib.sha256(
            np.column_stack([dep.lat, dep.lon, dep.slant_range_m]).data
        ).hexdigest(),
        channel_hash=hashlib.sha256(np.ascontiguousarray(h).data).hexdigest(),
        nonprec=precoding.nonprecoded_sinr(h, dep.beam_idx, cfg.tx_power(len(scenario.beams))),
    )


def build_iteration(scenario: Scenario, cluster_size: int, draw: IterationDraw) -> IterationState:
    """Cluster and sectorise one draw's users at one cluster size."""
    cfg = scenario.config
    dep, h = draw.deployment, draw.h

    # per-beam clustering in the configured similarity space; MaxDist fills
    # every cluster of a beam but its last, the only row of the table padded.
    # Users come beam after beam, so each beam's users are one slice of rows.
    n_beams = len(scenario.beams)
    n_users = np.bincount(dep.beam_idx, minlength=n_beams)
    first_user = np.cumsum(n_users) - n_users
    n_clusters = -(-n_users // cluster_size)
    first_cluster = np.cumsum(n_clusters) - n_clusters
    clusters = np.full((n_clusters.sum(), cluster_size), -1)
    sector = np.empty(len(clusters), dtype=int)
    grid = cfg.sector_grid()
    for bi, beam in enumerate(scenario.beams):
        sel = slice(first_user[bi], first_user[bi] + n_users[bi])
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        dep.lat[sel], dep.lon[sel])
        xy = np.column_stack([x, y])
        if cfg.clustering_similarity == "euclidean":
            feats = xy
        else:
            feats = clustering.channel_features(h[sel])
        local = clustering.max_dist_partition(feats, cluster_size, beam.beam_id)
        rows = slice(first_cluster[bi], first_cluster[bi] + n_clusters[bi])
        clusters[rows] = np.where(local >= 0, first_user[bi] + local, -1)
        bary = clustering.cluster_means(xy, local)
        phi, radius = geometry.normalized_polar_from_xy(beam.boundary_xy, *bary.T, clamp=True)
        sector[rows] = grid.assign(phi, radius)

    return IterationState(
        draw=draw,
        clusters=clusters,
        cluster_sizes=np.count_nonzero(clusters >= 0, axis=1),
        n_clusters=n_clusters,
        first_cluster=first_cluster,
        sector=sector,
    )


def run_iteration(scenario: Scenario, cluster_sizes, density: float, policies, iteration: int,
                  collect_trace=False, collect_map=False, channel_map=False) -> dict:
    """Draw one (density, iteration) and evaluate each cluster size on it.

    Returns {cluster size: IterationResult, or the validation, geometry or
    linear-algebra error that size raised}; any other error propagates.  With
    `channel_map`, the first size that succeeds carries the draw's map.
    """
    cfg = scenario.config
    try:
        draw = draw_iteration(scenario, density, iteration)
    except _CELL_ERRORS as exc:
        return dict.fromkeys(cluster_sizes, exc)
    mapped = None
    if channel_map:
        magnitude_db = np.abs(draw.h)       # 20 log10 |h| in this one buffer
        np.log10(magnitude_db, out=magnitude_db)
        magnitude_db *= 20.0
        mapped = (draw.deployment, magnitude_db)
    p_tx = cfg.tx_power(len(scenario.beams))
    if cfg.regularization_mode == "paper":
        alpha = cfg.noise_power_w / p_tx
    else:
        alpha = 1.0 / p_tx

    results = {}
    for cluster_size in cluster_sizes:
        try:
            state = build_iteration(scenario, cluster_size, draw)
            per_policy = {
                policy: _evaluate_policy(scenario, policy, state, iteration, alpha, p_tx,
                                         collect_trace, collect_map)
                for policy in policies
            }
            results[cluster_size] = IterationResult(
                iteration, draw.deployment_hash, draw.channel_hash, per_policy, mapped,
            )
            mapped = None           # the first size that succeeds carries the map
        except _CELL_ERRORS as exc:
            results[cluster_size] = exc
    return results


def _evaluate_policy(scenario, policy, state, iteration, alpha, p_tx, collect_trace,
                     collect_map):
    cfg = scenario.config
    if policy == "random":
        seq = scheduling.random_schedule(
            state.n_clusters, iteration_seed(cfg.master_seed, iteration, _SEED_RANDOM),
        )
    elif policy == "gsa":
        seq = scheduling.gsa_schedule(
            state.sector, state.n_clusters, cfg.sector_grid(),
            iteration_seed(cfg.master_seed, iteration, _SEED_GSA),
        )
    else:
        raise ValidationError(f"unknown scheduler policy {policy!r}")
    n_beams = len(scenario.beams)
    dep, nonprec_all = state.draw.deployment, state.draw.nonprec
    beam_idx = dep.beam_idx

    n_frames = seq.n_frames
    rows = state.first_cluster + seq.selection
    keep_sinrs = collect_trace or collect_map
    # frames per block: its gathered member channels hold about _CHUNK_ROWS
    # complex values (1 MiB)
    step = max(1, _CHUNK_ROWS // (n_beams * n_beams * state.clusters.shape[1]))
    blocks = []
    for start in range(0, n_frames, step):
        try:
            block = _precode_frames(scenario, state, rows[start:start + step], alpha, p_tx)
        except _CELL_ERRORS:
            # raise what the lowest failing frame of the block raises on its own
            for fi in range(start, min(start + step, n_frames)):
                _precode_frames(scenario, state, rows[fi:fi + 1], alpha, p_tx)
            raise
        blocks.append(block if keep_sinrs else block[:2])
    rates, loss_flags, *sinrs = (np.concatenate(part) for part in zip(*blocks))

    data = PolicyIterationData(rates, loss_flags, seq.sector)
    if not keep_sinrs:
        return data
    members, prec = sinrs
    if collect_trace:
        frame_no = np.arange(1, n_frames + 1)
        data.traces["schedule.csv"] = {
            "frame": np.repeat(frame_no, n_beams),
            "sector": np.repeat(seq.sector, n_beams),
            "beam": np.tile(np.arange(n_beams), n_frames),
            "cluster": seq.selection.ravel(),
            "borrowed": seq.borrowed.ravel(),
        }
        data.traces["sinr_trace.csv"] = {
            "frame": np.repeat(frame_no, state.cluster_sizes[rows].sum(axis=1)),
            "beam": beam_idx[members],
            "user": members,
            "precoded_db": _db(prec),
            "nonprecoded_db": _db(nonprec_all[members]),
        }
    if collect_map:
        n_users = len(nonprec_all)
        serve_count = np.bincount(members, minlength=n_users)
        prec_sum = np.bincount(members, weights=prec, minlength=n_users)
        served = serve_count > 0
        mean_prec = np.full(n_users, np.nan)
        mean_prec[served] = _db(prec_sum[served] / serve_count[served])
        data.user_map = {
            "beam": dep.beam_id,
            "user": np.arange(n_users),
            "lat": dep.lat,
            "lon": dep.lon,
            "mean_precoded_db": mean_prec,
            "mean_nonprecoded_db": _db(nonprec_all),
            "frames_served": serve_count,
        }
    return data


def _precode_frames(scenario, state, rows, alpha, p_tx):
    """Precode a block of frames, frame f serving the cluster rows `rows[f]`.

    Returns the frames' (f, N_B) rates, their loss flags, and the members
    they serve, frame after frame and cluster after cluster, with their
    precoded SINRs.  Every frame gets the arithmetic of its own 2-D
    precoding calls, to the last bit.
    """
    h, nonprec = state.draw.h, state.draw.nonprec
    n_frames, n_beams = rows.shape
    table = state.clusters[rows.ravel()]         # (f * N_B, K), -1 past a cluster's size
    eqvec = clustering.cluster_means(h, table)
    w = precoding.normalize_power(
        precoding.mmse_precoder(eqvec.reshape(n_frames, n_beams, -1), alpha), "sum-power", p_tx)
    slots = table.reshape(n_frames, -1)          # a pad gathers a stand-in user, dropped below
    served = slots >= 0
    prec = precoding.precoded_sinr(h[slots], state.draw.deployment.beam_idx[slots], w, p_tx)
    lost = np.any((prec < nonprec[slots]) & served, axis=1)
    members, prec = slots[served], prec[served]
    rates = cluster_rates(prec, state.cluster_sizes[rows].ravel(), scenario.modcod)
    return rates.reshape(n_frames, n_beams), lost, members, prec


# ---------------------------------------------------------------------------
# Run outputs and the experiment loop
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    tool_version: str
    config_hash: str
    master_seed: int
    iterations: int
    sweep: list
    policies: list
    child_seed_scheme: str
    child_seeds: list
    artifacts: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def scenario_hash(scenario: Scenario) -> str:
    payload = {
        "config": asdict(scenario.config),
        "beams": [
            {
                "id": b.beam_id,
                "center": [b.center_lat, b.center_lon],
                "boundary": b.boundary.tolist(),
                "area_km2": b.area_km2,
                "g_max_db": b.g_max_db,
                "theta_3db_deg": b.theta_3db_deg,
            }
            for b in scenario.beams
        ],
        "modcod": {
            "thresholds_db": scenario.modcod.thresholds_db.tolist(),
            "efficiencies": scenario.modcod.efficiencies.tolist(),
        },
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Rows per formatted block of a table, and member channel vector entries per
# block of precoded frames; bounds what either holds at once.
_CHUNK_ROWS = 65536


def _column_text(column: np.ndarray) -> list:
    """A column's values as CSV fields, formatted by its dtype."""
    kind = column.dtype.kind
    if kind == "b":
        return [str(v) for v in column.astype(np.uint8).tolist()]
    if kind in "iu":
        return [str(v) for v in column.tolist()]
    if kind == "f":
        return [format(v, ".10g") for v in column.tolist()]
    if kind == "U":
        return column.tolist()
    raise TypeError(f"no CSV format for dtype {column.dtype}")


def table_blocks(columns):
    """{column name: 1-D values} as CSV text: the header line, then blocks of
    `_CHUNK_ROWS` rows.

    Integers and bools are written as integers, floats to 10 significant
    digits (`nan` for NaN), strings as they are.  The columns' lengths are
    checked when the header is taken.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError(f"columns differ in length: {[len(a) for a in arrays]}")
    yield ",".join(columns) + "\n"
    for start in range(0, n_rows, _CHUNK_ROWS):
        fields = [_column_text(a[start:start + _CHUNK_ROWS]) for a in arrays]
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


def _write_table(path, columns, append=False):
    """Write {column name: 1-D values} as CSV, formatted by `table_blocks`.

    `append` adds the rows to the file without a header; appended tables
    join as one.
    """
    blocks = table_blocks(columns)
    header = next(blocks)           # checks the columns before the file is opened
    with open(path, "a" if append else "w") as fh:
        if not append:
            fh.write(header)
        fh.writelines(blocks)


def _cell_dir(out_dir, cluster_size, density):
    return os.path.join(out_dir or "", f"K{cluster_size}_rho{density:g}")


def _append_iteration(cell, result):
    """Append one iteration's rows to each policy's tables in `cell`; returns their paths.

    Iteration 0 starts the tables, and only it carries user maps.
    """
    paths = []
    for policy, data in result.per_policy.items():
        os.makedirs(os.path.join(cell, policy), exist_ok=True)
        n_frames, n_beams = data.rates.shape
        frame = np.arange(1, n_frames + 1)
        tables = {
            "rates.csv": {
                "frame": np.repeat(frame, n_beams),
                "beam": np.tile(np.arange(n_beams), n_frames),
                "rate": data.rates.ravel(),
            },
            "frames.csv": {"frame": frame, "sector": data.sectors, "loss": data.loss_flags},
            **data.traces,
        }
        for name, table in tables.items():
            paths.append(os.path.join(cell, policy, name))
            rows = np.full(len(next(iter(table.values()))), result.iteration)
            _write_table(paths[-1], {"iteration": rows, **table}, append=result.iteration > 0)
        if data.user_map is not None:
            paths.append(os.path.join(cell, policy, "user_map.csv"))
            _write_table(paths[-1], data.user_map)
    return paths


def _write_iterations(cell, results, report):
    """Each policy's per-iteration metrics of a completed cell; returns the paths."""
    paths = []
    for policy, agg in report.policies.items():
        paths.append(os.path.join(cell, policy, "iterations.csv"))
        _write_table(paths[-1], {
            "iteration": [r.iteration for r in results],
            "eta_bar": agg.per_iteration_eta,
            "loss_frame_fraction": agg.per_iteration_loss_fraction,
            "n_frames": agg.per_iteration_frames,
            "deployment_hash": [r.deployment_hash for r in results],
            "channel_hash": [r.channel_hash for r in results],
        })
    return paths


def write_channel_map(out_dir, density, dep, magnitude_db):
    """Debug dump of iteration 0's |h| in dB, a row per (user, antenna); K plays no part.

    Written `_CHUNK_ROWS // N_B` users at a time, so the expanded columns
    of one block are held at once, not the whole map's.
    """
    n_users, n_beams = magnitude_db.shape
    path = os.path.join(out_dir, f"channel_map_rho{density:g}.csv")
    step = max(1, _CHUNK_ROWS // n_beams)
    for start in range(0, n_users, step):
        block = slice(start, min(start + step, n_users))
        users = np.arange(block.start, block.stop)
        _write_table(path, {
            "beam": np.repeat(dep.beam_id[block], n_beams),
            "user": np.repeat(users, n_beams),
            "lat": np.repeat(dep.lat[block], n_beams),
            "lon": np.repeat(dep.lon[block], n_beams),
            "antenna": np.tile(np.arange(n_beams), len(users)),
            "magnitude_db": magnitude_db[block].ravel(),
        }, append=start > 0)
    return path


def write_summary(out_dir, reports):
    """Top-level summary and gain tables; returns the written paths."""
    cells = [(report, policy, report.policies[policy])
             for report in reports for policy in sorted(report.policies)]
    gained = [report for report in reports if report.gain is not None]
    paths = [os.path.join(out_dir, "summary.csv")]
    _write_table(paths[0], {
        "cluster_size": [report.cluster_size for report, _, _ in cells],
        "density": [report.density for report, _, _ in cells],
        "policy": [policy for _, policy, _ in cells],
        "eta_bar": [agg.eta_bar for _, _, agg in cells],
        "loss_frame_fraction": [agg.loss_frame_fraction for _, _, agg in cells],
        "n_frames": [agg.n_frames for _, _, agg in cells],
        "n_iterations": [agg.n_iterations for _, _, agg in cells],
    })
    if gained:
        paths.append(os.path.join(out_dir, "gains.csv"))
        _write_table(paths[1], {
            "cluster_size": [report.cluster_size for report in gained],
            "density": [report.density for report in gained],
            "gain": [report.gain for report in gained],
        })
    return paths


# Every BLAS the workers' numpy may load reads its thread count from these
# variables when it is loaded.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_pool(threads):
    """A pool of `threads` spawned worker processes, each with one BLAS thread.

    A worker's BLAS work (stacks of N_B x N_B solves, small Gram products) is
    far too small for a BLAS thread pool to pay, and one pool per worker per
    core oversubscribes the machine.  A forked worker would inherit the BLAS
    the parent has already started, so the workers are spawned, and import
    numpy, with the variables set to 1; the parent's own values are restored
    when the pool closes.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        with ProcessPoolExecutor(threads, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_experiment(scenario: Scenario, sweep=None, policies=POLICIES, out_dir=None,
                   threads=1, iterations=None, write_traces=True, channel_map=False):
    """Run the sweep; optionally write per-cell artifacts and a manifest.

    Returns (dict mapping (cluster_size, density) -> MetricsReport, manifest);
    a cell listed more than once runs once.  Each cell's directory starts
    empty.  A cell failing with a validation, geometry or linear-algebra
    error is recorded as a diagnostic, leaves no directory and does not
    abort the sweep; any other error propagates.
    """
    cfg = scenario.config
    if sweep is None:
        sweep = [(cfg.cluster_size, cfg.user_density)]
    sweep = list(dict.fromkeys(sweep))  # each cell once, where it first appears
    iterations = cfg.monte_carlo_iterations if iterations is None else int(iterations)
    if not sweep or iterations < 1:
        raise ValidationError("a run needs at least one sweep cell and one iteration")
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")

    errors = {}       # cell -> the error of its lowest failing iteration
    sizes = {}        # density -> the cluster sizes it runs
    for cluster_size, density in sweep:
        try:
            check_density_supports_clusters(scenario, cluster_size, density)
        except ValidationError as exc:
            errors[cluster_size, density] = exc
        else:
            sizes.setdefault(density, []).append(cluster_size)
    held = {(k, rho): [] for rho, ks in sizes.items() for k in ks}  # results, traces dropped
    written = {}      # cell -> the files its iteration 0 started
    reports, artifacts = {}, []
    write = bool(out_dir)
    if write:
        for cell_dir in (_cell_dir(out_dir, *cell) for cell in sweep):
            if os.path.isdir(cell_dir):     # an earlier run's, into the same directory
                shutil.rmtree(cell_dir)
    units = [(scenario, sizes[rho], rho, tuple(policies), it, write and write_traces,
              write and it == 0, write and channel_map and it == 0)
             for rho in sizes for it in range(iterations)]
    with _worker_pool(threads) if threads > 1 else contextlib.nullcontext() as pool:
        done = pool.map(run_iteration, *zip(*units)) if pool else itertools.starmap(
            run_iteration, units)
        for (_, _, density, *_), by_size in zip(units, done):
            for cluster_size, result in by_size.items():
                cell = (cluster_size, density)
                cell_dir = _cell_dir(out_dir, *cell)
                if cell in errors:
                    continue
                if isinstance(result, Exception):
                    errors[cell] = result
                    del held[cell]
                    if written.pop(cell, None):
                        shutil.rmtree(cell_dir)
                    continue
                if write:
                    written.setdefault(cell, _append_iteration(cell_dir, result))
                if result.channel_map is not None:
                    artifacts.append(write_channel_map(out_dir, density, *result.channel_map))
                    result.channel_map = None
                for data in result.per_policy.values():
                    data.traces, data.user_map = {}, None
                held[cell].append(result)
                if len(held[cell]) < iterations:
                    continue
                results = held.pop(cell)        # the cell is complete
                reports[cell] = aggregate(
                    cluster_size, density,
                    {p: [r.per_policy[p].rates for r in results] for p in policies},
                    {p: [r.per_policy[p].loss_flags for r in results] for p in policies},
                )
                if write:
                    artifacts += written.pop(cell)
                    artifacts += _write_iterations(cell_dir, results, reports[cell])
    reports = {cell: reports[cell] for cell in sweep if cell in reports}
    diagnostics = [f"K={k} rho={r:g}: {errors[k, r]}" for k, r in sweep if (k, r) in errors]

    manifest = RunManifest(
        tool_version=f"beamsim {__version__}",
        config_hash=scenario_hash(scenario),
        master_seed=cfg.master_seed,
        iterations=iterations,
        sweep=[[int(k), float(r)] for k, r in sweep],
        policies=list(policies),
        child_seed_scheme="numpy SeedSequence(entropy=(master_seed, iteration, purpose)); "
                          "purposes: 0=deploy, 1=phases, 2=random, 3=gsa",
        child_seeds=[
            {"iteration": it, "streams": [[cfg.master_seed, it, p] for p in range(4)]}
            for it in range(iterations)
        ],
    )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        artifacts.extend(write_summary(out_dir, list(reports.values())))
        if diagnostics:
            path = os.path.join(out_dir, "diagnostics.txt")
            with open(path, "w") as fh:
                fh.write("\n".join(diagnostics) + "\n")
            artifacts.append(path)
        for name in ("gains.csv", "diagnostics.txt"):
            path = os.path.join(out_dir, name)
            if path not in artifacts and os.path.exists(path):
                os.remove(path)         # an earlier run's, into the same directory
        manifest.artifacts = sorted(os.path.relpath(p, out_dir) for p in artifacts)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            fh.write(manifest.to_json() + "\n")
    if diagnostics and not reports:
        raise ValidationError("; ".join(diagnostics))
    return reports, manifest


def run_cell(scenario: Scenario, cluster_size: int, density: float, policies=POLICIES,
             iterations=None, threads=1):
    """One (cluster size, density) cell of a sweep, without files: its MetricsReport."""
    reports, _ = run_experiment(scenario, [(cluster_size, density)], policies, threads=threads,
                                iterations=iterations)
    return reports[cluster_size, density]
