"""Monte Carlo orchestration.

One iteration = deploy users, synthesize channels, cluster, sectorise, then
run each requested scheduler over the same deployment so policy comparisons
are paired.  Every RNG stream derives from (master_seed, iteration, purpose),
so iterations are independent of execution order and the run is reproducible
at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import channel as chn
from . import clustering, geometry, precoding, scheduling
from .errors import GeometryError, ValidationError
from .link_adaptation import UserSinrMap, aggregate, cluster_rates
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
    partitions: list          # partitions[b]: ClusterPartition of beam b's users
    member_lists: list        # member_lists[b][c]: global user indices of cluster c
    eqvecs: list              # eqvecs[b]: (N_K_b, N_B) equivalent channel vectors
    sectorisations: list      # sectorisations[b]: Sectorisation of beam b's clusters


@dataclass
class PolicyIterationData:
    rates: np.ndarray                     # (n_frames, N_B) bit/s/Hz
    loss_flags: np.ndarray                # (n_frames,) bool
    sectors: np.ndarray                   # (n_frames,) sector label (NO_SECTOR for random)
    schedule_rows: np.ndarray | None      # frame, sector, beam, cluster, borrowed
    sinr_rows: np.ndarray | None          # frame, beam, user, precoded_db, nonprecoded_db
    user_map: UserSinrMap | None


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

    # per-beam clustering in the configured similarity space
    partitions, member_lists, eqvecs, sectorisations = [], [], [], []
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
        member_lists.append([sel[c] for c in part.clusters])
        eqvecs.append(np.vstack([h[sel[c]].mean(axis=0) for c in part.clusters]))
        polars = [
            geometry.normalized_polar_from_xy(beam.boundary_xy, px, py, clamp=True)
            for px, py in clustering.cluster_barycentres(xy, part)
        ]
        sectorisations.append(geometry.sectorise(grid, beam.beam_id, polars))

    return IterationState(
        deployment=dep,
        h=h,
        deployment_hash=hashlib.sha256(
            np.ascontiguousarray(np.column_stack([dep.lat, dep.lon, dep.slant])).tobytes()
        ).hexdigest(),
        channel_hash=hashlib.sha256(np.ascontiguousarray(h).tobytes()).hexdigest(),
        partitions=partitions,
        member_lists=member_lists,
        eqvecs=eqvecs,
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
    h_all, eqvecs, member_lists = state.h, state.eqvecs, state.member_lists

    n_frames = seq.n_frames
    rates = np.zeros((n_frames, n_beams))
    loss_flags = np.zeros(n_frames, dtype=bool)
    sectors = np.array([f.sector for f in seq.frames], dtype=int)
    sched_rows = [] if collect_trace else None
    sinr_rows = [] if collect_trace else None
    prec_sum = np.zeros(len(h_all)) if collect_map else None
    serve_count = np.zeros(len(h_all), dtype=int) if collect_map else None

    beam_range = np.arange(n_beams)
    for fi, frame in enumerate(seq.frames):
        sel = frame.selection
        h_frame = np.vstack([eqvecs[b][sel[b]] for b in beam_range])
        w = precoding.normalize_power(
            precoding.mmse_precoder(h_frame, alpha), cfg.normalization_mode, p_tx
        )
        members_by_beam = [member_lists[b][sel[b]] for b in beam_range]
        sizes = np.array([len(m) for m in members_by_beam])
        members = np.concatenate(members_by_beam)
        serving = np.repeat(beam_range, sizes)
        prec = precoding.precoded_sinr(h_all[members], serving, w, p_tx)
        nonprec = nonprec_all[members]

        rates[fi] = cluster_rates(prec, sizes, scenario.modcod)
        loss_flags[fi] = bool(np.any(prec < nonprec))

        if collect_map:
            np.add.at(prec_sum, members, prec)
            np.add.at(serve_count, members, 1)
        if collect_trace:
            borrowed = (
                frame.borrowed.astype(int) if frame.borrowed is not None
                else np.zeros(n_beams, dtype=int)
            )
            sched_rows.append(
                np.column_stack([
                    np.full(n_beams, frame.frame), np.full(n_beams, frame.sector),
                    beam_range, sel, borrowed,
                ])
            )
            sinr_rows.append(
                np.column_stack([
                    np.full(len(members), frame.frame), serving, members,
                    _db(prec), _db(nonprec),
                ])
            )

    user_map = None
    if collect_map:
        dep = state.deployment
        served = serve_count > 0
        mean_prec = np.full(len(h_all), np.nan)
        mean_prec[served] = _db(prec_sum[served] / serve_count[served])
        user_map = UserSinrMap(
            beam_ids=dep.beam_id.copy(),
            user_ids=np.arange(len(h_all)),
            lat=dep.lat.copy(),
            lon=dep.lon.copy(),
            mean_precoded_db=mean_prec,
            mean_nonprecoded_db=_db(nonprec_all),
            frames_served=serve_count.copy(),
        )
    return PolicyIterationData(
        rates=rates,
        loss_flags=loss_flags,
        sectors=sectors,
        schedule_rows=np.vstack(sched_rows) if sched_rows else None,
        sinr_rows=np.vstack(sinr_rows) if sinr_rows else None,
        user_map=user_map,
    )


# ---------------------------------------------------------------------------
# Cell / experiment drivers
# ---------------------------------------------------------------------------

def _iteration_task(args):
    scenario, k, rho, policies, iteration, collect_trace, collect_map = args
    return run_iteration(scenario, k, rho, policies, iteration, collect_trace, collect_map)


def run_cell(scenario: Scenario, cluster_size: int, density: float, policies=POLICIES,
             iterations=None, threads=1, collect_trace=False, map_iterations=1):
    """All Monte Carlo iterations of one (cluster size, density) cell.

    Returns (list of IterationResult in iteration order, MetricsReport).
    """
    cfg = scenario.config
    iterations = cfg.monte_carlo_iterations if iterations is None else int(iterations)
    check_density_supports_clusters(scenario, cluster_size, density)
    tasks = [
        (scenario, cluster_size, density, tuple(policies), it, collect_trace,
         it < map_iterations)
        for it in range(iterations)
    ]
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_iteration_task, tasks, chunksize=1))
    else:
        results = [_iteration_task(t) for t in tasks]

    rates_by_policy = {p: [r.per_policy[p].rates for r in results] for p in policies}
    loss_by_policy = {p: [r.per_policy[p].loss_flags for r in results] for p in policies}
    user_maps = {
        p: results[0].per_policy[p].user_map
        for p in policies
        if results and results[0].per_policy[p].user_map is not None
    }
    report = aggregate(cluster_size, density, rates_by_policy, loss_by_policy, user_maps)
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


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    value = float(value)
    return "nan" if math.isnan(value) else f"{value:.10g}"


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _cell_dir(out_dir, cluster_size, density, policy):
    return os.path.join(out_dir, f"K{cluster_size}_rho{density:g}", policy)


def _write_cell_outputs(out_dir, cluster_size, density, policy, results, report):
    cell = _cell_dir(out_dir, cluster_size, density, policy)
    os.makedirs(cell, exist_ok=True)
    written = []

    agg = report.policies[policy]
    rows = [
        (r.iteration, agg.per_iteration_eta[i], agg.per_iteration_loss_fraction[i],
         agg.per_iteration_frames[i], r.deployment_hash, r.channel_hash)
        for i, r in enumerate(results)
    ]
    path = os.path.join(cell, "iterations.csv")
    with open(path, "w") as fh:
        fh.write("iteration,eta_bar,loss_frame_fraction,n_frames,deployment_hash,channel_hash\n")
        for it, eta, loss, nf, dh, ch in rows:
            fh.write(f"{it},{_fmt(eta)},{_fmt(loss)},{nf},{dh},{ch}\n")
    written.append(path)

    rate_rows = []
    frame_rows = []
    for r in results:
        data = r.per_policy[policy]
        for fi in range(len(data.rates)):
            frame_rows.append((r.iteration, fi + 1, int(data.sectors[fi]), int(data.loss_flags[fi])))
            for b, rate in enumerate(data.rates[fi]):
                rate_rows.append((r.iteration, fi + 1, b, rate))
    path = os.path.join(cell, "rates.csv")
    _write_csv(path, ["iteration", "frame", "beam", "rate"], rate_rows)
    written.append(path)
    path = os.path.join(cell, "frames.csv")
    _write_csv(path, ["iteration", "frame", "sector", "loss"], frame_rows)
    written.append(path)

    if results and results[0].per_policy[policy].schedule_rows is not None:
        sched = []
        sinr = []
        for r in results:
            data = r.per_policy[policy]
            it_col = np.full((len(data.schedule_rows), 1), r.iteration)
            sched.append(np.hstack([it_col, data.schedule_rows]))
            it_col = np.full((len(data.sinr_rows), 1), r.iteration)
            sinr.append(np.hstack([it_col, data.sinr_rows]))
        sched = np.vstack(sched)
        path = os.path.join(cell, "schedule.csv")
        _write_csv(
            path,
            ["iteration", "frame", "sector", "beam", "cluster", "borrowed"],
            [(int(a), int(b), int(c), int(d), int(e), int(f)) for a, b, c, d, e, f in sched],
        )
        written.append(path)
        sinr = np.vstack(sinr)
        path = os.path.join(cell, "sinr_trace.csv")
        _write_csv(
            path,
            ["iteration", "frame", "beam", "user", "precoded_db", "nonprecoded_db"],
            [(int(a), int(b), int(c), int(d), e, f) for a, b, c, d, e, f in sinr],
        )
        written.append(path)

    umap = report.user_maps.get(policy)
    if umap is not None:
        path = os.path.join(cell, "user_map.csv")
        _write_csv(
            path,
            ["beam", "user", "lat", "lon", "mean_precoded_db", "mean_nonprecoded_db",
             "frames_served"],
            zip(umap.beam_ids, umap.user_ids, umap.lat, umap.lon,
                umap.mean_precoded_db, umap.mean_nonprecoded_db, umap.frames_served),
        )
        written.append(path)
    return written


def write_channel_map(scenario: Scenario, density, out_dir):
    """Debug dump of per-user channel magnitudes for the iteration-0 deployment.

    Magnitudes do not depend on the random phases, which are left at zero, so
    the map is policy-independent; one long-format row per (user, antenna).
    """
    dep = deploy(scenario, density, 0)
    n_beams = len(scenario.beams)
    mag_db = 20.0 * np.log10(np.abs(_channel(scenario, dep, np.zeros(n_beams))))
    path = os.path.join(out_dir, "channel_map.csv")
    rows = (
        (dep.beam_id[i], i, dep.lat[i], dep.lon[i], j, mag_db[i, j])
        for i in range(len(mag_db)) for j in range(n_beams)
    )
    _write_csv(path, ["beam", "user", "lat", "lon", "antenna", "magnitude_db"], rows)
    return path


def write_summary(out_dir, reports):
    """Top-level summary and gain tables; returns the written paths."""
    summary_rows = []
    gain_rows = []
    for report in reports:
        for policy in sorted(report.policies):
            agg = report.policies[policy]
            summary_rows.append(
                (report.cluster_size, report.density, policy, agg.eta_bar,
                 agg.loss_frame_fraction, agg.n_frames, agg.n_iterations)
            )
        if report.gain is not None:
            gain_rows.append((report.cluster_size, report.density, report.gain))
    paths = []
    path = os.path.join(out_dir, "summary.csv")
    _write_csv(
        path,
        ["cluster_size", "density", "policy", "eta_bar", "loss_frame_fraction",
         "n_frames", "n_iterations"],
        summary_rows,
    )
    paths.append(path)
    if gain_rows:
        path = os.path.join(out_dir, "gains.csv")
        _write_csv(path, ["cluster_size", "density", "gain"], gain_rows)
        paths.append(path)
    return paths


def run_experiment(scenario: Scenario, sweep=None, policies=POLICIES, out_dir=None,
                   threads=1, iterations=None, write_traces=True, map_iterations=1,
                   channel_map=False):
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
    for cluster_size, density in sweep:
        try:
            results, report = run_cell(
                scenario, cluster_size, density, policies, iterations, threads,
                collect_trace=write_traces, map_iterations=map_iterations,
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
            if channel_map:
                cell_root = os.path.dirname(_cell_dir(out_dir, cluster_size, density, "x"))
                artifacts.append(write_channel_map(scenario, density, cell_root))

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
