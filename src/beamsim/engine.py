"""Monte Carlo orchestration.

One iteration = deploy users, synthesize channels, cluster, sectorise, then
run each requested scheduler over the same deployment so policy comparisons
are paired.  The clusters are rows of one padded table (beam b's cluster c at
`first_cluster[b] + c`), and frame f of a schedule serves the rows
`first_cluster + selection[f]`.  Every RNG stream derives from (master_seed,
iteration, purpose), so iterations are independent of execution order and the
run is reproducible at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
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
class Deployment:
    """One iteration's users as arrays indexed by user id."""

    lat: np.ndarray
    lon: np.ndarray
    slant: np.ndarray         # slant range, m
    beam_id: np.ndarray       # serving beam id
    beam_idx: np.ndarray      # index of the serving beam in scenario.beams


@dataclass
class IterationState:
    """Everything an iteration schedules from, shared by all its policies."""

    deployment: Deployment
    h: np.ndarray             # (n_users, N_B) channel matrix with the iteration's phases
    deployment_hash: str
    channel_hash: str
    clusters: np.ndarray      # (C, K) global user ids per cluster, -1 past its size
    cluster_sizes: np.ndarray # (C,) members per cluster
    first_cluster: np.ndarray # (N_B,) beam b's cluster c is row first_cluster[b] + c
    eqvec: np.ndarray         # (C, N_B) equivalent channel vector: the members' mean
    partitions: list          # partitions[b]: ClusterPartition of beam b's users
    sectorisations: list      # sectorisations[b]: Sectorisation of beam b's clusters


@dataclass
class PolicyIterationData:
    """One policy's frames in one iteration; the tables map column name -> 1-D array."""

    rates: np.ndarray                     # (n_frames, N_B) bit/s/Hz
    loss_flags: np.ndarray                # (n_frames,) bool
    sectors: np.ndarray                   # (n_frames,) sector label (NO_SECTOR for random)
    schedule: dict | None = None          # a row per (frame, beam)
    sinr_trace: dict | None = None        # a row per (frame, served user), SINRs in dB
    user_map: dict | None = None          # a row per user: mean SINRs over its frames


@dataclass
class IterationResult:
    iteration: int
    deployment_hash: str
    channel_hash: str
    per_policy: dict


def _db(x):
    return 10.0 * np.log10(np.maximum(x, 1e-300))


def deploy(scenario: Scenario, density: float, iteration: int) -> Deployment:
    """The users of one iteration, drawn from its deployment stream."""
    users = deploy_users(
        scenario.beams, density,
        iteration_seed(scenario.config.master_seed, iteration, _SEED_DEPLOY),
        scenario.satellite(),
    )
    beam_id = np.array([u.beam_id for u in users])
    index = {b.beam_id: i for i, b in enumerate(scenario.beams)}
    return Deployment(
        lat=np.array([u.lat for u in users]),
        lon=np.array([u.lon for u in users]),
        slant=np.array([u.slant_range_m for u in users]),
        beam_id=beam_id,
        beam_idx=np.array([index[b] for b in beam_id]),
    )


def _channel(scenario: Scenario, dep: Deployment, phases) -> np.ndarray:
    cfg = scenario.config
    satellite = scenario.satellite()
    rf = chn.beam_rf_parameters(scenario.beams, satellite, cfg.tx_aperture_efficiency)
    return chn.channel_matrix(dep.lat, dep.lon, dep.slant, dep.beam_idx, rf, satellite, cfg,
                              phases)


def build_iteration(scenario: Scenario, cluster_size: int, density: float,
                    iteration: int) -> IterationState:
    """Deploy, synthesize channels, cluster and sectorise one iteration."""
    cfg = scenario.config
    dep = deploy(scenario, density, iteration)
    phases = chn.draw_phases(
        len(scenario.beams),
        np.random.default_rng(iteration_seed(cfg.master_seed, iteration, _SEED_PHASES)),
    )
    h = _channel(scenario, dep, phases)

    # per-beam clustering in the configured similarity space; MaxDist fills
    # every cluster of a beam but its last, the only row of the table padded
    n_beams = len(scenario.beams)
    n_clusters = -(-np.bincount(dep.beam_idx, minlength=n_beams) // cluster_size)
    first_cluster = np.cumsum(n_clusters) - n_clusters
    clusters = np.full((n_clusters.sum(), cluster_size), -1)
    eqvec = np.empty((len(clusters), n_beams), dtype=h.dtype)
    partitions, sectorisations = [], []
    grid = cfg.sector_grid()
    for bi, beam in enumerate(scenario.beams):
        sel = np.flatnonzero(dep.beam_idx == bi)
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        dep.lat[sel], dep.lon[sel])
        xy = np.column_stack([x, y])
        if cfg.clustering_similarity == "euclidean":
            feats = xy
        else:
            feats = clustering.channel_features(h[sel])
        part = clustering.max_dist_partition(feats, cluster_size, beam.beam_id)
        partitions.append(part)
        local = np.full((part.n_clusters, cluster_size), -1)
        local.flat[:len(sel)] = np.concatenate(part.clusters)
        rows = slice(first_cluster[bi], first_cluster[bi] + part.n_clusters)
        clusters[rows] = np.where(local >= 0, sel[local], -1)
        eqvec[rows] = clustering.cluster_means(h[sel], local)
        bary = clustering.cluster_means(xy, local)
        phi, radius = geometry.normalized_polar_from_xy(beam.boundary_xy, *bary.T, clamp=True)
        sectorisations.append(geometry.sectorise(grid, beam.beam_id, grid.assign(phi, radius)))

    return IterationState(
        deployment=dep,
        h=h,
        deployment_hash=hashlib.sha256(
            np.ascontiguousarray(np.column_stack([dep.lat, dep.lon, dep.slant])).tobytes()
        ).hexdigest(),
        channel_hash=hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest(),
        clusters=clusters,
        cluster_sizes=np.count_nonzero(clusters >= 0, axis=1),
        first_cluster=first_cluster,
        eqvec=eqvec,
        partitions=partitions,
        sectorisations=sectorisations,
    )


def run_iteration(scenario: Scenario, cluster_size: int, density: float, policies,
                  iteration: int, collect_trace=False, collect_map=False) -> IterationResult:
    cfg = scenario.config
    state = build_iteration(scenario, cluster_size, density, iteration)
    p_tx = cfg.tx_power(len(scenario.beams))
    if cfg.regularization_mode == "paper":
        alpha = cfg.noise_power_w / p_tx
    else:
        alpha = 1.0 / p_tx
    nonprec_all = precoding.nonprecoded_sinr(state.h, state.deployment.beam_idx, p_tx)

    per_policy = {}
    for policy in policies:
        if policy == "random":
            seq = scheduling.random_schedule(
                state.partitions, cfg.n_frames,
                iteration_seed(cfg.master_seed, iteration, _SEED_RANDOM),
            )
        elif policy == "gsa":
            seq = scheduling.gsa_schedule(
                state.partitions, state.sectorisations,
                iteration_seed(cfg.master_seed, iteration, _SEED_GSA),
            )
        else:
            raise ValidationError(f"unknown scheduler policy {policy!r}")
        per_policy[policy] = _evaluate_schedule(
            scenario, seq, state, nonprec_all, alpha, p_tx, collect_trace, collect_map,
        )

    return IterationResult(iteration, state.deployment_hash, state.channel_hash, per_policy)


def _evaluate_schedule(scenario, seq, state, nonprec_all, alpha, p_tx, collect_trace,
                       collect_map):
    cfg = scenario.config
    n_beams = len(scenario.beams)
    h_all, beam_idx = state.h, state.deployment.beam_idx

    n_frames = seq.n_frames
    rates = np.zeros((n_frames, n_beams))
    loss_flags = np.zeros(n_frames, dtype=bool)
    keep_sinrs = collect_trace or collect_map
    frame_members, frame_prec = [], []

    for fi, rows in enumerate(state.first_cluster + seq.selection):
        w = precoding.normalize_power(
            precoding.mmse_precoder(state.eqvec[rows], alpha), cfg.normalization_mode, p_tx
        )
        table = state.clusters[rows]
        members = table[table >= 0]
        prec = precoding.precoded_sinr(h_all[members], beam_idx[members], w, p_tx)

        rates[fi] = cluster_rates(prec, state.cluster_sizes[rows], scenario.modcod)
        loss_flags[fi] = bool(np.any(prec < nonprec_all[members]))
        if keep_sinrs:
            frame_members.append(members)
            frame_prec.append(prec)

    data = PolicyIterationData(rates, loss_flags, seq.sector)
    if not keep_sinrs:
        return data
    members = np.concatenate(frame_members)
    prec = np.concatenate(frame_prec)
    if collect_trace:
        frame_no = np.arange(1, n_frames + 1)
        data.schedule = {
            "frame": np.repeat(frame_no, n_beams),
            "sector": np.repeat(seq.sector, n_beams),
            "beam": np.tile(np.arange(n_beams), n_frames),
            "cluster": seq.selection.ravel(),
            "borrowed": seq.borrowed.ravel(),
        }
        data.sinr_trace = {
            "frame": np.repeat(frame_no, [len(m) for m in frame_members]),
            "beam": beam_idx[members],
            "user": members,
            "precoded_db": _db(prec),
            "nonprecoded_db": _db(nonprec_all[members]),
        }
    if collect_map:
        n_users = len(h_all)
        serve_count = np.bincount(members, minlength=n_users)
        prec_sum = np.bincount(members, weights=prec, minlength=n_users)
        served = serve_count > 0
        mean_prec = np.full(n_users, np.nan)
        mean_prec[served] = _db(prec_sum[served] / serve_count[served])
        dep = state.deployment
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


# ---------------------------------------------------------------------------
# Cell / experiment drivers
# ---------------------------------------------------------------------------

def _iteration_task(args):
    scenario, k, rho, policies, iteration, collect_trace, collect_map = args
    return run_iteration(scenario, k, rho, policies, iteration, collect_trace, collect_map)


def run_cell(scenario: Scenario, cluster_size: int, density: float, policies=POLICIES,
             iterations=None, threads=1, collect_trace=False):
    """All Monte Carlo iterations of one (cluster size, density) cell.

    Returns (list of IterationResult in iteration order, MetricsReport); only
    iteration 0 carries user maps.
    """
    cfg = scenario.config
    iterations = cfg.monte_carlo_iterations if iterations is None else int(iterations)
    check_density_supports_clusters(scenario, cluster_size, density)
    tasks = [
        (scenario, cluster_size, density, tuple(policies), it, collect_trace, it == 0)
        for it in range(iterations)
    ]
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_iteration_task, tasks, chunksize=1))
    else:
        results = [_iteration_task(t) for t in tasks]

    rates_by_policy = {p: [r.per_policy[p].rates for r in results] for p in policies}
    loss_by_policy = {p: [r.per_policy[p].loss_flags for r in results] for p in policies}
    report = aggregate(cluster_size, density, rates_by_policy, loss_by_policy)
    return results, report


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


# Rows per formatted block of a table; bounds the strings held at once.
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


def _write_table(path, columns):
    """Write {column name: 1-D values} as CSV, `_CHUNK_ROWS` rows at a time.

    Integers and bools are written as integers, floats to 10 significant
    digits (`nan` for NaN), strings as they are.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    n_rows = len(arrays[0])
    if any(len(a) != n_rows for a in arrays):
        raise ValueError(f"{path}: columns differ in length")
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            fields = [_column_text(a[start:start + _CHUNK_ROWS]) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _stack(iterations, tables):
    """Per-iteration tables as one, led by an iteration column."""
    lengths = [len(next(iter(t.values()))) for t in tables]
    return {
        "iteration": np.repeat(iterations, lengths),
        **{name: np.concatenate([t[name] for t in tables]) for name in tables[0]},
    }


def _write_cell_outputs(out_dir, cluster_size, density, policy, results, report):
    cell = os.path.join(out_dir, f"K{cluster_size}_rho{density:g}", policy)
    os.makedirs(cell, exist_ok=True)

    agg = report.policies[policy]
    data = [r.per_policy[policy] for r in results]
    iterations = [r.iteration for r in results]
    frames = _stack(iterations, [
        {"frame": np.arange(1, len(d.rates) + 1), "sector": d.sectors, "loss": d.loss_flags}
        for d in data
    ])
    rates = np.vstack([d.rates for d in data])
    n_beams = rates.shape[1]
    tables = {
        "iterations.csv": {
            "iteration": iterations,
            "eta_bar": agg.per_iteration_eta,
            "loss_frame_fraction": agg.per_iteration_loss_fraction,
            "n_frames": agg.per_iteration_frames,
            "deployment_hash": [r.deployment_hash for r in results],
            "channel_hash": [r.channel_hash for r in results],
        },
        "rates.csv": {
            "iteration": np.repeat(frames["iteration"], n_beams),
            "frame": np.repeat(frames["frame"], n_beams),
            "beam": np.tile(np.arange(n_beams), len(rates)),
            "rate": rates.ravel(),
        },
        "frames.csv": frames,
    }
    if data[0].schedule is not None:
        tables["schedule.csv"] = _stack(iterations, [d.schedule for d in data])
        tables["sinr_trace.csv"] = _stack(iterations, [d.sinr_trace for d in data])
    if data[0].user_map is not None:
        tables["user_map.csv"] = data[0].user_map

    written = []
    for name, table in tables.items():
        path = os.path.join(cell, name)
        _write_table(path, table)
        written.append(path)
    return written


def write_channel_map(scenario: Scenario, density, out_dir):
    """Debug dump of per-user channel magnitudes for the iteration-0 deployment.

    Magnitudes do not depend on the random phases, which are left at zero, so
    the map depends only on the density; one long-format row per (user, antenna).
    """
    dep = deploy(scenario, density, 0)
    n_users, n_beams = len(dep.lat), len(scenario.beams)
    mag_db = 20.0 * np.log10(np.abs(_channel(scenario, dep, np.zeros(n_beams))))
    path = os.path.join(out_dir, f"channel_map_rho{density:g}.csv")
    _write_table(path, {
        "beam": np.repeat(dep.beam_id, n_beams),
        "user": np.repeat(np.arange(n_users), n_beams),
        "lat": np.repeat(dep.lat, n_beams),
        "lon": np.repeat(dep.lon, n_beams),
        "antenna": np.tile(np.arange(n_beams), n_users),
        "magnitude_db": mag_db.ravel(),
    })
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


def run_experiment(scenario: Scenario, sweep=None, policies=POLICIES, out_dir=None,
                   threads=1, iterations=None, write_traces=True, channel_map=False):
    """Run the full sweep; optionally write per-cell artifacts and a manifest.

    Returns (dict mapping (cluster_size, density) -> MetricsReport, manifest).
    A cell failing with a validation, geometry or linear-algebra error is
    recorded as a diagnostic and does not abort the sweep; any other error
    propagates.
    """
    cfg = scenario.config
    if sweep is None:
        sweep = [(cfg.cluster_size, cfg.user_density)]
    if not sweep:
        raise ValidationError("sweep must contain at least one (cluster_size, density) cell")
    iterations = cfg.monte_carlo_iterations if iterations is None else int(iterations)

    reports = {}
    diagnostics = []
    artifacts = []
    mapped = set()    # densities whose channel map is written
    for cluster_size, density in sweep:
        try:
            results, report = run_cell(
                scenario, cluster_size, density, policies, iterations, threads,
                collect_trace=write_traces,
            )
        except (ValidationError, GeometryError, np.linalg.LinAlgError) as exc:
            # record and continue with the other cells
            diagnostics.append(f"K={cluster_size} rho={density:g}: {exc}")
            continue
        reports[(cluster_size, density)] = report
        if out_dir:
            for policy in policies:
                artifacts.extend(
                    _write_cell_outputs(out_dir, cluster_size, density, policy, results, report)
                )
            if channel_map and density not in mapped:
                mapped.add(density)
                artifacts.append(write_channel_map(scenario, density, out_dir))

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
        manifest.artifacts = sorted(os.path.relpath(p, out_dir) for p in artifacts)
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            fh.write(manifest.to_json() + "\n")
    if diagnostics and not reports:
        raise ValidationError("; ".join(diagnostics))
    return reports, manifest
