"""Command-line interface.

Subcommands: run (Monte Carlo experiment), validate (check inputs only),
cluster (dump the clusters and sectors run uses in iteration 0), report
(print a run directory's summary and gains tables).  Exit codes: 0 on
success, 1 on runtime failure (for run: when any cell failed), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__, engine
from .errors import GeometryError, ValidationError
from .scenario import (
    Scenario,
    check_density_supports_clusters,
    convert_field,
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
    """The (K, density) cells of `--cluster-size` x `--density`, each item
    converted like its config field; an absent flag keeps the config's value."""
    def values(text, name):
        if text is None:
            return [getattr(cfg, name)]
        return [convert_field(name, v) for v in text.split(",")]

    return [(k, rho) for k in values(args.cluster_size, "cluster_size")
            for rho in values(args.density, "user_density")]


def _policies(args):
    if args.scheduler == "both":
        return ("random", "gsa")
    return (args.scheduler,)


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    out_dir = _resolve_out(args)
    reports, manifest = engine.run_experiment(
        scenario,
        sweep=_parse_sweep(args, scenario.config),
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
    failed = [f"K={k} rho={rho:g}" for k, rho in manifest.sweep if (k, rho) not in reports]
    if failed:
        print(f"error: {len(failed)} of {len(manifest.sweep)} cells failed ({', '.join(failed)}); "
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


def cmd_cluster(args) -> int:
    scenario = _load_scenario(args)
    check_density_supports_clusters(scenario)
    cfg = scenario.config
    draw = engine.draw_iteration(scenario, cfg.user_density, 0)
    state = engine.build_iteration(scenario, cfg.cluster_size, draw)
    dep = draw.deployment
    rows, slots = np.nonzero(state.clusters >= 0)
    users = state.clusters[rows, slots]
    sys.stdout.writelines(engine.table_blocks({
        "beam": dep.beam_id[users],
        "cluster": rows - state.first_cluster[dep.beam_idx[users]],
        "sector": state.sector[rows],
        "user": users,
        "lat": dep.lat[users],
        "lon": dep.lon[users],
    }))
    return 0


def _read_table(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cmd_report(args) -> int:
    """Print a run directory's summary and gains tables."""
    out_dir = _resolve_out(args)
    summary = os.path.join(out_dir, "summary.csv")
    if not os.path.isfile(summary):
        raise ValidationError(f"run directory {out_dir} has no summary.csv")
    rows = sorted(
        (int(r["cluster_size"]), float(r["density"]), r["policy"], float(r["eta_bar"]),
         float(r["loss_frame_fraction"]), int(r["n_frames"]))
        for r in _read_table(summary)
    )
    if not rows:
        raise ValidationError(f"{summary} lists no completed cells")
    print("cluster_size,density,policy,eta_bar,loss_frame_fraction,n_frames")
    for k, rho, policy, eta, loss, n in rows:
        print(f"{k},{rho:g},{policy},{eta:.6f},{loss:.6f},{n}")
    gains = os.path.join(out_dir, "gains.csv")
    if os.path.isfile(gains):
        for k, rho, gain in sorted((int(r["cluster_size"]), float(r["density"]), float(r["gain"]))
                                   for r in _read_table(gains)):
            print(f"# gain K={k} rho={rho:g}: {gain:+.6f} bit/s/Hz")
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

    p = sub.add_parser("cluster", help="dump iteration 0's clusters and their sectors as CSV")
    common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("report", help="print a run directory's summary and gains")
    p.add_argument("--out", help="run directory (or $BEAMSIM_OUT)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # reader closed the pipe (e.g. `beamsim cluster | head`); exit quietly
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
