"""Command-line interface.

Subcommands: run (Monte Carlo experiment), validate (check inputs only),
sectorize (dump per-user sector assignments), cluster (dump the partitions
run uses in iteration 0), report (re-aggregate a run directory's rate
traces).  Exit codes: 0 on success, 1 on runtime failure (for run: when any
cell failed), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__, engine, geometry
from .errors import GeometryError, ValidationError
from .scenario import (
    Scenario,
    check_density_supports_clusters,
    load_beams,
    load_config,
    load_modcod,
    validate_config,
)


def data_path(name: str):
    return resources.files("beamsim") / "data" / name

DEFAULT_CONFIG = "config_default.yaml"
DEFAULT_BEAMS = "beams_hex19.json"
DEFAULT_MODCOD = "modcod_dvbs2x.csv"


def _resolve_out(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("BEAMSIM_OUT", "beamsim-out")


def _load_scenario(args) -> Scenario:
    cfg_src = args.config if args.config else str(data_path(DEFAULT_CONFIG))
    beams_src = args.beams if args.beams else str(data_path(DEFAULT_BEAMS))
    modcod_src = args.modcod if args.modcod else str(data_path(DEFAULT_MODCOD))
    cfg = load_config(cfg_src)
    if args.seed is not None:
        cfg = validate_config(replace(cfg, master_seed=args.seed))
    return Scenario(cfg, load_beams(beams_src), load_modcod(modcod_src))


def _parse_sweep(args, cfg):
    ks = (
        [int(v) for v in str(args.cluster_size).split(",")]
        if args.cluster_size is not None
        else [cfg.cluster_size]
    )
    rhos = (
        [float(v) for v in str(args.density).split(",")]
        if args.density is not None
        else [cfg.user_density]
    )
    return [(k, rho) for k in ks for rho in rhos]


def _policies(args):
    if args.scheduler == "both":
        return ("random", "gsa")
    return (args.scheduler,)


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    sweep = _parse_sweep(args, scenario.config)
    out_dir = _resolve_out(args)
    reports, _ = engine.run_experiment(
        scenario,
        sweep=sweep,
        policies=_policies(args),
        out_dir=out_dir,
        threads=args.threads,
        iterations=args.iterations,
        write_traces=not args.no_traces,
        channel_map=args.channel_map,
    )
    for (k, rho), report in sorted(reports.items()):
        for policy in sorted(report.policies):
            agg = report.policies[policy]
            print(
                f"K={k} rho={rho:g} {policy}: eta_bar={agg.eta_bar:.4f} bit/s/Hz, "
                f"loss_frames={agg.loss_frame_fraction:.3f}, frames={agg.n_frames}"
            )
        if report.gain is not None:
            print(f"K={k} rho={rho:g} gain (gsa - random): {report.gain:+.4f} bit/s/Hz")
    print(f"artifacts written to {out_dir}")
    failed = [f"K={k} rho={rho:g}" for k, rho in sweep if (k, rho) not in reports]
    if failed:
        print(f"error: {len(failed)} of {len(sweep)} cells failed ({', '.join(failed)}); "
              f"see {os.path.join(out_dir, 'diagnostics.txt')}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args) -> int:
    scenario = _load_scenario(args)
    check_density_supports_clusters(scenario)
    print(
        f"ok: {scenario.n_beams} beams, cluster size {scenario.config.cluster_size}, "
        f"density {scenario.config.user_density:g}/km^2, "
        f"{len(scenario.modcod.thresholds_db)} ModCod rows"
    )
    return 0


def cmd_sectorize(args) -> int:
    scenario = _load_scenario(args)
    grid = scenario.config.sector_grid()
    dep = engine.deploy(scenario, scenario.config.user_density, 0)
    phi = np.empty(len(dep.lat))
    radius = np.empty(len(dep.lat))
    for bi, beam in enumerate(scenario.beams):
        sel = dep.beam_idx == bi
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        dep.lat[sel], dep.lon[sel])
        phi[sel], radius[sel] = geometry.normalized_polar_from_xy(beam.boundary_xy, x, y)
    sector = grid.assign(phi, radius)
    print("beam,user,lat,lon,phi,r_norm,sector")
    rows = zip(dep.beam_id, dep.lat, dep.lon, phi, radius, sector)
    for user, (beam_id, lat, lon, p, r, q) in enumerate(rows):
        print(f"{beam_id},{user},{lat:.6f},{lon:.6f},{p:.6f},{r:.6f},{q}")
    return 0


def cmd_cluster(args) -> int:
    scenario = _load_scenario(args)
    cfg = scenario.config
    state = engine.build_iteration(scenario, cfg.cluster_size, cfg.user_density, 0)
    dep = state.deployment
    rows, slots = np.nonzero(state.clusters >= 0)
    users = state.clusters[rows, slots]
    cluster = rows - state.first_cluster[dep.beam_idx[users]]
    print("beam,cluster,user,lat,lon")
    for beam_id, ci, m in zip(dep.beam_id[users], cluster, users):
        print(f"{beam_id},{ci},{m},{dep.lat[m]:.6f},{dep.lon[m]:.6f}")
    return 0


def cmd_report(args) -> int:
    out_dir = _resolve_out(args)
    if not os.path.isdir(out_dir):
        raise ValidationError(f"run directory {out_dir} does not exist")
    rows = []
    gains = {}
    for root, _, files in sorted(os.walk(out_dir)):
        if "rates.csv" not in files:
            continue
        policy = os.path.basename(root)
        cell = os.path.basename(os.path.dirname(root))
        try:
            k = int(cell.split("_")[0][1:])
            rho = float(cell.split("rho")[1])
        except (IndexError, ValueError):
            continue
        rates = np.loadtxt(os.path.join(root, "rates.csv"), delimiter=",", skiprows=1,
                           usecols=3, ndmin=1)
        frames = np.loadtxt(os.path.join(root, "frames.csv"), delimiter=",", skiprows=1,
                            usecols=3, ndmin=1)
        eta = float(np.mean(rates))
        loss = float(np.mean(frames))
        rows.append((k, rho, policy, eta, loss, len(frames)))
        gains.setdefault((k, rho), {})[policy] = eta
    if not rows:
        raise ValidationError(f"no rate traces found under {out_dir}")
    print("cluster_size,density,policy,eta_bar,loss_frame_fraction,n_frames")
    for k, rho, policy, eta, loss, n in sorted(rows):
        print(f"{k},{rho:g},{policy},{eta:.6f},{loss:.6f},{n}")
    for (k, rho), etas in sorted(gains.items()):
        if "gsa" in etas and "random" in etas:
            print(f"# gain K={k} rho={rho:g}: {etas['gsa'] - etas['random']:+.6f} bit/s/Hz")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description="Multi-beam GEO forward-link simulator with multicast precoding "
                    "and geographical scheduling",
    )
    parser.add_argument("--version", action="version", version=f"beamsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=False):
        p.add_argument("--config", required=config_required,
                       help="scenario config file (YAML/JSON)")
        p.add_argument("--beams", help="beam layout file (default: bundled 19-beam)")
        p.add_argument("--modcod", help="ModCod table CSV (default: bundled DVB-S2X)")
        p.add_argument("--seed", type=int, help="override the master seed")

    p = sub.add_parser("run", help="run the Monte Carlo experiment")
    common(p, config_required=True)
    p.add_argument("--scheduler", choices=["random", "gsa", "both"], default="both")
    p.add_argument("--cluster-size", help="cluster size K (comma list for a sweep)")
    p.add_argument("--density", help="user density per km^2 (comma list for a sweep)")
    p.add_argument("--iterations", type=int, help="Monte Carlo iterations")
    p.add_argument("--out", help="output directory (or $BEAMSIM_OUT)")
    p.add_argument("--threads", type=int, default=1, help="parallel worker processes")
    p.add_argument("--no-traces", action="store_true", help="skip schedule/SINR trace files")
    p.add_argument("--channel-map", action="store_true",
                   help="also dump per-user channel magnitudes (iteration 0)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="validate config, layout, and ModCod table")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sectorize", help="dump per-user sector assignments as CSV")
    common(p)
    p.set_defaults(func=cmd_sectorize)

    p = sub.add_parser("cluster", help="dump per-beam user partitions as CSV")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("report", help="re-aggregate rate traces from a run directory")
    p.add_argument("--out", help="run directory (or $BEAMSIM_OUT)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # reader closed the pipe (e.g. `beamsim sectorize | head`); exit quietly
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except (ValidationError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
