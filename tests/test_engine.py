import os

import numpy as np
import pytest

from beamsim import engine, precoding
from beamsim.errors import ValidationError

from conftest import bundled_scenario


@pytest.fixture(scope="module")
def small_scenario():
    # 7 beams, ~41 users per beam, 21 clusters at K=2: seconds to run
    return bundled_scenario("beams_hex7.json", user_density=2.5e-4,
                            cluster_size=2, monte_carlo_iterations=2)


def tree_files(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            path = os.path.join(base, f)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_run_cell_smoke(small_scenario):
    results, report = engine.run_cell(
        small_scenario, cluster_size=2, density=2.5e-4, policies=("random", "gsa"),
        iterations=2, collect_trace=True,
    )
    assert len(results) == 2
    for policy in ("random", "gsa"):
        agg = report.policies[policy]
        assert agg.n_iterations == 2
        assert agg.eta_bar >= 0.0
        assert 0.0 <= agg.loss_frame_fraction <= 1.0
        assert agg.n_frames == sum(len(r.per_policy[policy].rates) for r in results)
    # the same deployment feeds both policies inside one iteration
    data = results[0].per_policy
    assert data["random"].rates.shape[1] == small_scenario.n_beams
    assert data["gsa"].schedule is not None
    # iteration-0 user map exists and only counts scheduled frames
    umap = data["gsa"].user_map
    assert (umap["frames_served"] > 0).all()   # GSA serves every cluster
    assert np.isfinite(umap["mean_precoded_db"][umap["frames_served"] > 0]).all()
    assert results[1].per_policy["gsa"].user_map is None


def test_gsa_frames_match_sector_bound(small_scenario):
    state = engine.build_iteration(small_scenario, 2, 2.5e-4, 0)
    res = engine.run_iteration(small_scenario, 2, 2.5e-4, ("gsa",), iteration=0,
                               collect_trace=True)
    data = res.per_policy["gsa"]
    sched = data.schedule
    n_beams = small_scenario.n_beams
    n_sectors = state.sectorisations[0].grid.n_sectors
    # clusters of beam b in sector q, from the sectorisation the scheduler read
    counts = np.array([[len(s.members[q]) for q in range(n_sectors)]
                       for s in state.sectorisations])
    # each populated sector runs exactly max_b |members_b(q)| frames
    for q in range(n_sectors):
        assert int((data.sectors == q).sum()) == counts[:, q].max()
    # a beam borrows exactly when its own sector is empty
    assert np.array_equal(sched["borrowed"],
                          counts[sched["beam"], sched["sector"]] == 0)
    assert len(sched["beam"]) == len(data.sectors) * n_beams


def test_table_writer_formats_by_dtype(tmp_path):
    path = tmp_path / "t.csv"
    engine._write_table(path, {
        "n": np.array([0, -7, 2**40, 3, 12, 5]),
        "flag": np.array([True, False, True, False, True, False]),
        "x": np.array([0.1, 1 / 3, -0.0, 1e-300, np.inf, np.nan]),
        "hash": np.array(["9f86d081", "3e23e816", "2c624232", "19581e27", "4a44dc15", "ef2d127d"]),
    })
    assert path.read_text() == (
        "n,flag,x,hash\n"
        "0,1,0.1,9f86d081\n"
        "-7,0,0.3333333333,3e23e816\n"
        "1099511627776,1,-0,2c624232\n"
        "3,0,1e-300,19581e27\n"
        "12,1,inf,4a44dc15\n"
        "5,0,nan,ef2d127d\n"
    )
    with pytest.raises(ValueError, match="differ in length"):
        engine._write_table(path, {"a": [1, 2], "b": [1.0]})


@pytest.mark.parametrize("chunk", [1, 4, 5])
def test_table_writer_chunks_join_seamlessly(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(0)
    table = {
        "user": np.arange(10),
        "served": rng.integers(0, 2, 10).astype(bool),
        "sinr_db": rng.normal(size=10),
        "hash": np.array([f"{v:08x}" for v in rng.integers(0, 2**32, 10)]),
    }
    whole = tmp_path / "whole.csv"
    engine._write_table(whole, table)
    monkeypatch.setattr(engine, "_CHUNK_ROWS", chunk)
    chunked = tmp_path / "chunked.csv"
    engine._write_table(chunked, table)
    assert chunked.read_text() == whole.read_text()
    assert len(whole.read_text().splitlines()) == 11


def test_experiment_reruns_byte_identical(small_scenario, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        engine.run_experiment(
            small_scenario, sweep=[(2, 2.5e-4)], policies=("random", "gsa"),
            out_dir=str(out), threads=1, iterations=2,
        )
    t1, t2 = tree_files(out1), tree_files(out2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], f"{name} differs between identical runs"


def test_thread_count_independence(small_scenario, tmp_path):
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], out_dir=str(out1),
                          threads=1, iterations=2)
    engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], out_dir=str(out2),
                          threads=2, iterations=2)
    t1, t2 = tree_files(out1), tree_files(out2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], f"{name} differs across thread counts"


def test_policies_share_deployment(small_scenario):
    # separate single-policy runs still consume identical deployments/channels
    res_r, _ = engine.run_cell(small_scenario, 2, 2.5e-4, ("random",), iterations=2)
    res_g, _ = engine.run_cell(small_scenario, 2, 2.5e-4, ("gsa",), iterations=2)
    for a, b in zip(res_r, res_g):
        assert a.deployment_hash == b.deployment_hash
        assert a.channel_hash == b.channel_hash


def test_failing_cell_recorded_not_fatal(small_scenario, tmp_path):
    out = tmp_path / "sweep"
    reports, manifest = engine.run_experiment(
        small_scenario, sweep=[(2, 2.5e-4), (500, 2.5e-4)], out_dir=str(out),
        threads=1, iterations=1,
    )
    assert (2, 2.5e-4) in reports
    assert (500, 2.5e-4) not in reports
    diag = (out / "diagnostics.txt").read_text()
    assert "K=500" in diag


def test_nan_frame_is_a_cell_diagnostic(small_scenario, tmp_path, monkeypatch):
    precoded_sinr = precoding.precoded_sinr

    def first_user_nan(*args):
        sinr = precoded_sinr(*args)
        sinr[0] = np.nan
        return sinr

    monkeypatch.setattr(precoding, "precoded_sinr", first_user_nan)
    out = tmp_path / "nan"
    with pytest.raises(ValidationError, match="NaN"):
        engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], out_dir=str(out),
                              iterations=1)
    assert "K=2 rho=0.00025: cluster rates need SINRs that are not NaN" in (
        out / "diagnostics.txt").read_text()


def test_unexpected_cell_error_propagates(small_scenario, monkeypatch):
    def broken_cell(*args, **kwargs):
        raise RuntimeError("bug in a pipeline stage")

    monkeypatch.setattr(engine, "run_cell", broken_cell)
    with pytest.raises(RuntimeError, match="bug in a pipeline stage"):
        engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], iterations=1)


def test_all_cells_failing_raises(small_scenario):
    with pytest.raises(ValidationError):
        engine.run_experiment(small_scenario, sweep=[(500, 2.5e-4)], iterations=1)


def test_manifest_contents(small_scenario, tmp_path):
    out = tmp_path / "m"
    _, manifest = engine.run_experiment(
        small_scenario, sweep=[(2, 2.5e-4)], out_dir=str(out), threads=1, iterations=2,
    )
    assert manifest.master_seed == small_scenario.config.master_seed
    assert manifest.iterations == 2
    assert len(manifest.child_seeds) == 2
    assert manifest.config_hash == engine.scenario_hash(small_scenario)
    assert (out / "manifest.json").exists()
    assert any(name.endswith("summary.csv") for name in manifest.artifacts)
