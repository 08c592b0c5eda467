import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

import beamsim
from beamsim import channel, engine, geometry
from beamsim.cli import build_parser, data_path, main
from beamsim.engine import build_iteration, draw_iteration
from beamsim.geometry import satellite_ecef_km

from conftest import bundled_scenario
from test_scenario import table_config


@pytest.fixture
def small_config(tmp_path):
    cfg = table_config(user_density=2.5e-4, cluster_size=2, monte_carlo_iterations=2)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def hex7():
    return str(data_path("beams_hex7.json"))


def test_validate_bundled_layout_exit_zero(capsys):
    assert main(["validate", "--beams", hex7()]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_failure_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("not: [a, config")
    assert main(["validate", "--config", str(bad), "--beams", hex7()]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_rejects_a_negative_beam_id(tmp_path, capsys):
    records = json.loads(Path(hex7()).read_text())
    records[0]["id"] = -1
    layout = tmp_path / "beams.json"
    layout.write_text(json.dumps(records))
    assert main(["validate", "--beams", str(layout)]) == 1
    assert "beam id must be non-negative, got -1" in capsys.readouterr().err


def test_cluster_applies_the_cluster_size_check(tmp_path, capsys):
    # hex7 beams round to 41 users at this density, fewer than K = 64; validate
    # and run refuse the config, and so must the partition dump
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(table_config(user_density=2.5e-4, cluster_size=64)))
    for command in ("validate", "cluster"):
        assert main([command, "--config", str(config), "--beams", hex7()]) == 1
        captured = capsys.readouterr()
        assert "fewer than the cluster size 64" in captured.err
        assert captured.out == ""


def test_run_both_policies_paired(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--config", small_config, "--beams", hex7(),
        "--scheduler", "both", "--cluster-size", "2", "--out", str(out),
        "--iterations", "2",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "random:" in text and "gsa:" in text and "gain" in text
    cell = out / "K2_rho0.00025"
    for policy in ("random", "gsa"):
        for name in ("rates.csv", "frames.csv", "schedule.csv", "sinr_trace.csv",
                     "iterations.csv", "user_map.csv"):
            assert (cell / policy / name).exists()
    assert (out / "summary.csv").exists()
    assert (out / "gains.csv").exists()
    assert (out / "manifest.json").exists()


def test_missing_config_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scheduler", "both"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x.yaml", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_file_runtime_error(capsys):
    assert main(["run", "--config", "/nonexistent/config.yaml"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("layout", ["beams_hex7.json", "beams_hex19.json",
                                    "beams_europe71.json"])
def test_cluster_sectors_are_the_schedulers(layout, capsys):
    # each member carries the sector GSA schedules its cluster in: the sector
    # of the cluster's barycentre, not of the user's own position
    assert main(["cluster", "--beams", str(data_path(layout))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beam,cluster,sector,user,lat,lon"
    dump = np.array([[int(v) for v in line.split(",")[:4]] for line in lines[1:]])
    beam_id, cluster, sector, user = dump.T
    scenario = bundled_scenario(layout)
    cfg = scenario.config
    draw = draw_iteration(scenario, cfg.user_density, 0)
    state = build_iteration(scenario, cfg.cluster_size, draw)
    dep = draw.deployment
    assert np.array_equal(beam_id, dep.beam_id[user])
    rows = state.first_cluster[dep.beam_idx[user]] + cluster
    assert np.all((state.clusters[rows] == user[:, None]).any(axis=1))
    assert len(user) == state.cluster_sizes.sum()
    assert np.array_equal(sector, state.sector[rows])
    if layout != "beams_hex7.json":
        return
    # the barycentre's sector, recomputed cluster by cluster from the members' positions
    grid = cfg.sector_grid()
    for b, beam in enumerate(scenario.beams):
        for c in np.unique(cluster[dep.beam_idx[user] == b]):
            mine = (dep.beam_idx[user] == b) & (cluster == c)
            members = user[mine]
            x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                            dep.lat[members], dep.lon[members])
            phi, radius = geometry.normalized_polar_from_xy(
                beam.boundary_xy, np.array([x.mean()]), np.array([y.mean()]))
            assert set(sector[mine]) == {grid.assign(phi, radius)[0]}


def test_cluster_geometry_error_exit_one(small_config, monkeypatch, capsys):
    from beamsim.errors import GeometryError

    def missing_ray(boundary_xy, phi):
        raise GeometryError(f"ray at phi={phi[0]:.6f} rad does not meet the beam boundary")

    monkeypatch.setattr(geometry, "ray_boundary_distance", missing_ray)
    assert main(["cluster", "--config", small_config, "--beams", hex7()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ray at phi=")
    assert "Traceback" not in err


def test_run_partial_failure_exit_one(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--config", small_config, "--beams", hex7(), "--cluster-size", "2,2,1000",
        "--iterations", "1", "--no-traces", "--out", str(out),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "K=2 rho=0.00025 random:" in captured.out
    assert captured.out.count("K=2 rho=0.00025 random:") == 1
    assert "K=1000" not in captured.out
    # the repeated K = 2 is one cell: the manifest, summary and failure count agree
    assert "1 of 2 cells failed (K=1000 rho=0.00025)" in captured.err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sweep"] == [[2, 0.00025], [1000, 0.00025]]
    summary = (out / "summary.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in summary] == [
        ["2", "0.00025", "gsa"], ["2", "0.00025", "random"]]
    assert "K=1000" in (out / "diagnostics.txt").read_text()
    assert (out / "K2_rho0.00025" / "random" / "rates.csv").exists()


def test_validate_infinite_density_exit_one(tmp_path, capsys):
    # `user_density: .inf` used to end in an OverflowError traceback
    path = tmp_path / "inf.yaml"
    path.write_text(yaml.safe_dump(table_config(user_density=float("inf"))))
    assert main(["validate", "--config", str(path), "--beams", hex7()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'user_density' must be finite")
    assert "Traceback" not in err


def test_validate_rejects_paper_regularization(tmp_path, capsys):
    path = tmp_path / "paper.yaml"
    path.write_text(yaml.safe_dump(table_config(regularization_mode="paper")))
    assert main(["validate", "--config", str(path), "--beams", hex7()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'regularization_mode'")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_beam_gain_exit_one(command, small_config, tmp_path, capsys):
    # a NaN gain used to validate and then fail every cell in clustering
    records = json.loads(open(hex7()).read())
    records[2]["g_max_db"] = float("nan")
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(records))
    args = ["--config", small_config, "--beams", str(layout)]
    if command == "run":
        args += ["--iterations", "1", "--out", str(tmp_path / "out")]
    assert main([command, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: beam 3: unknown field(s): ['g_max_db']")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "cluster"])
def test_extra_beam_field_fails_at_load(command, small_config, tmp_path, capsys):
    # a 5000 dB gain override used to validate and then overflow in the run's channel
    records = json.loads(open(hex7()).read())
    records[4]["g_max_db"] = 5000.0
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(records))
    args = ["--config", small_config, "--beams", str(layout)]
    if command == "run":
        args += ["--iterations", "1", "--out", str(tmp_path / "out")]
    assert main([command, *args]) == 1
    out, err = capsys.readouterr()
    assert err == "error: beam 5: unknown field(s): ['g_max_db']\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_cluster_dumps_partitions(capsys):
    # the partitions run uses in iteration 0; the bundled config clusters in channel space
    assert main(["cluster", "--beams", hex7()]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    scenario = bundled_scenario("beams_hex7.json")
    cfg = scenario.config
    draw = draw_iteration(scenario, cfg.user_density, 0)
    state = build_iteration(scenario, cfg.cluster_size, draw)
    dep = draw.deployment
    expected = [
        f"{beam.beam_id},{ci},{state.sector[first + ci]},{m},{dep.lat[m]:.10g},{dep.lon[m]:.10g}"
        for beam, first, n in zip(scenario.beams, state.first_cluster, state.n_clusters)
        for ci, cluster in enumerate(state.clusters[first:first + n])
        for m in cluster[cluster >= 0]
    ]
    assert lines == ["beam,cluster,sector,user,lat,lon"] + expected


def test_channel_map_matches_public_api(small_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", small_config, "--beams", hex7(), "--cluster-size", "2,4",
                 "--iterations", "1", "--no-traces", "--channel-map", "--out", str(out)]) == 0
    # the map depends only on the density: one per density, not one per cell
    maps = [p.relative_to(out) for p in out.rglob("channel_map*")]
    assert [str(p) for p in maps] == ["channel_map_rho0.00025.csv"]
    lines = (out / maps[0]).read_text().splitlines()
    assert lines[0] == "beam,user,lat,lon,antenna,magnitude_db"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])

    # iteration 0's users and their channels with zero phases, rebuilt by hand
    cfg = beamsim.load_config(small_config)
    beams = beamsim.load_beams(hex7())
    sat = satellite_ecef_km(cfg.satellite_longitude)
    users = beamsim.deploy_users(beams, cfg.user_density,
                                 np.random.SeedSequence((cfg.master_seed, 0, 0)), sat)
    index = {b.beam_id: i for i, b in enumerate(beams)}
    rf = beamsim.beam_rf_parameters(beams, sat, cfg.tx_aperture_efficiency)
    h = beamsim.channel_matrix(
        np.array([u.lat for u in users]), np.array([u.lon for u in users]),
        np.array([u.slant_range_m for u in users]),
        np.array([index[u.beam_id] for u in users]), rf, sat, cfg, np.zeros(len(beams)),
    )
    n_users, n_beams = h.shape
    assert len(rows) == n_users * n_beams
    rows = rows.reshape(n_users, n_beams, 6)
    assert np.array_equal(rows[:, :, 0], np.repeat([[u.beam_id] for u in users], n_beams, 1))
    assert np.array_equal(rows[:, :, 1], np.repeat(np.arange(n_users)[:, None], n_beams, 1))
    assert np.allclose(rows[:, 0, 2], [u.lat for u in users], rtol=1e-9)
    assert np.allclose(rows[:, 0, 3], [u.lon for u in users], rtol=1e-9)
    assert np.array_equal(rows[:, :, 4], np.tile(np.arange(n_beams), (n_users, 1)))
    assert np.allclose(rows[:, :, 5], 20.0 * np.log10(np.abs(h)), rtol=1e-9)


def test_one_draw_per_density_iteration(small_config, tmp_path, monkeypatch):
    # users and channel depend only on (density, iteration): a K sweep and its
    # channel map draw each of the 2 iterations once
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(engine, "deploy_users")
    count(channel, "channel_matrix")
    assert main(["run", "--config", small_config, "--beams", hex7(), "--cluster-size", "1,2,4",
                 "--iterations", "2", "--channel-map", "--out", str(tmp_path / "out")]) == 0
    assert calls == {"deploy_users": 2, "channel_matrix": 2}


@pytest.mark.parametrize("seed", [-1, 2**32 + 5])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_seed_outside_32_bits_rejected(command, seed, small_config, tmp_path, capsys):
    argv = [command, "--config", small_config, "--beams", hex7(), "--seed", str(seed)]
    if command == "run":
        argv += ["--iterations", "1", "--no-traces", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'master_seed' must lie in [0, 2**32)")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(threads, small_config, tmp_path, capsys):
    # used to exit 0 and run serially
    out = tmp_path / "out"
    assert main(["run", "--config", small_config, "--beams", hex7(), "--threads", threads,
                 "--iterations", "1", "--no-traces", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: threads must be at least 1, got {threads}")
    assert "Traceback" not in err
    assert not out.exists()


def test_densities_sharing_a_label_exit_one(small_config, tmp_path, capsys):
    # used to exit 0, print K=2 rho=0.0025 twice and write one cell directory
    out = tmp_path / "dup"
    assert main(["run", "--config", small_config, "--beams", hex7(), "--cluster-size", "2",
                 "--density", "0.0025,0.0025000001", "--iterations", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: densities 0.0025 and 0.0025000001 share the label "
                            "rho0.0025 of their output files\n")
    assert captured.out == ""
    assert not out.exists()


def test_no_scipy_at_run_time(small_config, tmp_path):
    # scipy is a test dependency only; the tests import it, so check in a fresh process
    script = f"""
import sys

def check(step):
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, (step, loaded)

import beamsim
from beamsim.cli import main
check("import")
assert main(["validate", "--beams", {hex7()!r}]) == 0
check("validate")
assert main(["run", "--config", {small_config!r}, "--beams", {hex7()!r}, "--iterations", "1",
             "--no-traces", "--out", {str(tmp_path / "out")!r}]) == 0
check("run")
"""
    src = str(Path(beamsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("flag,value,field", [
    ("--cluster-size", "2,2.5", "cluster_size"),
    ("--cluster-size", "two", "cluster_size"),
    ("--density", "2.5e-4,dense", "user_density"),
])
def test_unconvertible_sweep_value_exit_one(flag, value, field, small_config, tmp_path, capsys):
    # `--cluster-size 2.5` used to end in a ValueError traceback from int()
    out = tmp_path / "out"
    assert main(["run", "--config", small_config, "--beams", hex7(), flag, value,
                 "--iterations", "1", "--no-traces", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}' must be a")
    assert "Traceback" not in err
    assert not out.exists()


def test_report_reaggregates(small_config, tmp_path, capsys):
    # report prints the run's own summary and gains tables, sorted by cell
    out = tmp_path / "out"
    main([
        "run", "--config", small_config, "--beams", hex7(), "--out", str(out),
        "--cluster-size", "4,2", "--iterations", "2", "--no-traces",
    ])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text[0] == "cluster_size,density,policy,eta_bar,loss_frame_fraction,n_frames"
    summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    expected = sorted((int(k), float(rho), policy, float(eta), float(loss), int(n))
                      for k, rho, policy, eta, loss, n, _ in summary)
    assert text[1:5] == [f"{k},{rho:g},{policy},{eta:.6f},{loss:.6f},{n}"
                         for k, rho, policy, eta, loss, n in expected]
    gains = [line.split(",") for line in (out / "gains.csv").read_text().splitlines()[1:]]
    assert text[5:] == [f"# gain K={k} rho={float(rho):g}: {float(g):+.6f} bit/s/Hz"
                        for k, rho, g in sorted(gains, key=lambda r: int(r[0]))]
    # the tables are all it reads: the per-cell traces can go
    for cell in out.glob("K*"):
        shutil.rmtree(cell)
    assert main(["report", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == text


def test_rerun_removes_the_earlier_gains(small_config, tmp_path, capsys):
    # a single-policy run writes no gains.csv, so report must not find the
    # previous run's in the same directory
    out = tmp_path / "out"
    base = ["run", "--config", small_config, "--beams", hex7(), "--iterations", "1",
            "--no-traces", "--out", str(out)]
    assert main(base) == 0
    assert (out / "gains.csv").exists()
    assert main(base + ["--scheduler", "random", "--cluster-size", "1"]) == 0
    assert not (out / "gains.csv").exists()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert "# gain" not in capsys.readouterr().out


def test_rerun_removes_the_earlier_diagnostics(small_config, tmp_path):
    out = tmp_path / "out"
    base = ["run", "--config", small_config, "--beams", hex7(), "--iterations", "1",
            "--no-traces", "--out", str(out)]
    assert main(base + ["--cluster-size", "2,1000"]) == 1
    assert (out / "diagnostics.txt").exists()
    assert main(base + ["--cluster-size", "2"]) == 0
    assert not (out / "diagnostics.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert all((out / name).is_file() for name in manifest["artifacts"])


def test_readme_lists_the_subcommands():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (line,) = [line for line in readme.splitlines() if line.startswith("Subcommands:")]
    assert re.findall(r"`([^`]+)`", line) == list(commands)


def test_readme_records_the_71_beam_config_hash():
    # the hash of the paper's experiment, which README's 71-beam section records
    scenario = bundled_scenario("beams_europe71.json")
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{engine.scenario_hash(scenario)}`" in readme


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", "--out", "/nonexistent/run"]) == 1
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: run directory {tmp_path} has no summary.csv")


def test_broken_pipe_exits_quietly(small_config, monkeypatch, capsys):
    class ClosedPipe(io.StringIO):
        writes = 0

        def write(self, text):
            ClosedPipe.writes += 1
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["cluster", "--config", small_config, "--beams", hex7()]) == 0
    assert ClosedPipe.writes == 1
    assert capsys.readouterr().err == ""


def test_env_var_output_dir(small_config, tmp_path, monkeypatch, capsys):
    target = tmp_path / "env-out"
    monkeypatch.setenv("BEAMSIM_OUT", str(target))
    code = main([
        "run", "--config", small_config, "--beams", hex7(), "--iterations", "1",
        "--scheduler", "random", "--no-traces",
    ])
    assert code == 0
    assert (target / "summary.csv").exists()
