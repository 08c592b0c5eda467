import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from beamsim import clustering, engine, geometry, precoding, scheduling
from beamsim.errors import ValidationError
from beamsim.link_adaptation import aggregate, cluster_rates

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


def test_run_iteration_smoke(small_scenario):
    # one draw feeds every cluster size and both policies of an iteration
    by_size = engine.run_iteration(small_scenario, (1, 2), 2.5e-4, ("random", "gsa"), 0,
                                   collect_trace=True, collect_map=True)
    assert list(by_size) == [1, 2]
    assert by_size[1].channel_hash == by_size[2].channel_hash
    for k, result in by_size.items():
        data = result.per_policy
        assert data["random"].rates.shape[1] == small_scenario.n_beams
        assert set(data["gsa"].traces) == {"schedule.csv", "sinr_trace.csv"}
        # the user map only counts scheduled frames
        umap = data["gsa"].user_map
        assert (umap["frames_served"] > 0).all()   # GSA serves every cluster
        assert np.isfinite(umap["mean_precoded_db"]).all()
        assert result.channel_map is None
    later = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), 1)[2]
    assert later.per_policy["gsa"].user_map is None
    assert later.per_policy["gsa"].traces == {}



def _report_values(report):
    return {policy: (agg.eta_bar, agg.loss_frame_fraction, agg.n_frames, agg.n_iterations,
                     agg.per_iteration_eta.tolist(), agg.per_iteration_loss_fraction.tolist(),
                     agg.per_iteration_frames.tolist())
            for policy, agg in report.policies.items()}


def test_sweep_reports_pool_their_own_iterations(small_scenario):
    # each cell's report aggregates exactly the results of its own K, density and
    # iterations, computed here one cell-iteration at a time
    sweep = [(1, 2.5e-4), (2, 2.5e-4), (2, 4e-4)]
    reports, _ = engine.run_experiment(small_scenario, sweep=sweep, iterations=2)
    assert list(reports) == sweep
    for k, rho in sweep:
        results = [engine.run_iteration(small_scenario, (k,), rho, engine.POLICIES, it)[k]
                   for it in range(2)]
        rates = {p: [r.per_policy[p].rates for r in results] for p in engine.POLICIES}
        loss = {p: [r.per_policy[p].loss_flags for r in results] for p in engine.POLICIES}
        for policy, agg in reports[k, rho].policies.items():
            frames = [len(r) for r in rates[policy]]
            assert agg.per_iteration_frames.tolist() == frames
            assert agg.n_frames == sum(frames)
            assert agg.n_iterations == 2
            assert 0.0 <= agg.loss_frame_fraction <= 1.0
        assert _report_values(reports[k, rho]) == _report_values(
            aggregate(k, rho, rates, loss))
    # the single-cell entry point reports what the sweep does
    assert _report_values(engine.run_cell(small_scenario, 2, 4e-4, iterations=2)) == (
        _report_values(reports[2, 4e-4]))


def per_frame_reference(scenario, policy, state, iteration, alpha, p_tx):
    """A policy's frames precoded one at a time with the 2-D precoding calls.

    Returns the rates, loss flags, schedule and sinr_trace columns and the
    user map, built as the engine builds them.
    """
    cfg = scenario.config
    if policy == "random":
        seq = scheduling.random_schedule(state.n_clusters, engine.iteration_seed(
            cfg.master_seed, iteration, engine._SEED_RANDOM))
    else:
        seq = scheduling.gsa_schedule(state.sector, state.n_clusters, cfg.sector_grid(),
                                      engine.iteration_seed(cfg.master_seed, iteration,
                                                            engine._SEED_GSA))
    dep, h, nonprec = state.draw.deployment, state.draw.h, state.draw.nonprec
    n_frames, n_beams = seq.selection.shape
    rates = np.zeros((n_frames, n_beams))
    loss_flags = np.zeros(n_frames, dtype=bool)
    frame_members, frame_prec = [], []
    for fi, rows in enumerate(state.first_cluster + seq.selection):
        table = state.clusters[rows]
        eqvec = clustering.cluster_means(h, table)
        w = precoding.normalize_power(precoding.mmse_precoder(eqvec, alpha), "sum-power", p_tx)
        members = table[table >= 0]
        prec = precoding.precoded_sinr(h[members], dep.beam_idx[members], w, p_tx)
        rates[fi] = cluster_rates(prec, state.cluster_sizes[rows], scenario.modcod)
        loss_flags[fi] = bool(np.any(prec < nonprec[members]))
        frame_members.append(members)
        frame_prec.append(prec)
    members, prec = np.concatenate(frame_members), np.concatenate(frame_prec)
    frame_no = np.arange(1, n_frames + 1)
    traces = {
        "schedule.csv": {
            "frame": np.repeat(frame_no, n_beams),
            "sector": np.repeat(seq.sector, n_beams),
            "beam": np.tile(np.arange(n_beams), n_frames),
            "cluster": seq.selection.ravel(),
            "borrowed": seq.borrowed.ravel(),
        },
        "sinr_trace.csv": {
            "frame": np.repeat(frame_no, [len(m) for m in frame_members]),
            "beam": dep.beam_idx[members],
            "user": members,
            "precoded_db": engine._db(prec),
            "nonprecoded_db": engine._db(nonprec[members]),
        },
    }
    n_users = len(h)
    serve_count = np.bincount(members, minlength=n_users)
    prec_sum = np.bincount(members, weights=prec, minlength=n_users)
    served = serve_count > 0
    mean_prec = np.full(n_users, np.nan)
    mean_prec[served] = engine._db(prec_sum[served] / serve_count[served])
    user_map = {
        "beam": dep.beam_id,
        "user": np.arange(n_users),
        "lat": dep.lat,
        "lon": dep.lon,
        "mean_precoded_db": mean_prec,
        "mean_nonprecoded_db": engine._db(nonprec),
        "frames_served": serve_count,
    }
    return rates, loss_flags, traces, user_map


def assert_same_frames(data, reference):
    rates, loss_flags, traces, user_map = reference
    np.testing.assert_array_equal(data.rates, rates)
    np.testing.assert_array_equal(data.loss_flags, loss_flags)
    assert data.traces.keys() == traces.keys()
    for name, table in traces.items():
        assert data.traces[name].keys() == table.keys()
        for column, values in table.items():
            np.testing.assert_array_equal(data.traces[name][column], values,
                                          err_msg=f"{name}: {column}")
    assert data.user_map.keys() == user_map.keys()
    for column, values in user_map.items():
        np.testing.assert_array_equal(data.user_map[column], values, err_msg=column)


@pytest.mark.parametrize("layout", ["beams_hex7.json", "beams_hex19.json"])
def test_frame_blocks_match_per_frame_loop(layout, monkeypatch):
    # every frame of a block is precoded to the bit as it is on its own; blocks
    # of the default size, of one frame, and with a shorter last block
    scenario = bundled_scenario(layout)
    cfg = scenario.config
    n_beams = scenario.n_beams
    p_tx = cfg.tx_power(n_beams)
    alpha = cfg.noise_power_w / p_tx
    for iteration in (0, 1):
        draw = engine.draw_iteration(scenario, cfg.user_density, iteration)
        for k in (1, 2, 4, 8):
            state = engine.build_iteration(scenario, k, draw)
            for policy in engine.POLICIES:
                reference = per_frame_reference(scenario, policy, state, iteration, alpha, p_tx)
                n_frames = len(reference[0])
                step = next(s for s in (3, 4, 5, 7) if n_frames % s)
                for chunk in (engine._CHUNK_ROWS, 1, n_beams * n_beams * k * step):
                    monkeypatch.setattr(engine, "_CHUNK_ROWS", chunk)
                    data = engine._evaluate_policy(scenario, policy, state, iteration,
                                                   alpha, p_tx, True, True)
                    assert_same_frames(data, reference)
                monkeypatch.undo()


@pytest.mark.parametrize("faults, message", [
    ({3: "nan", 7: "zero"}, "cluster rates need SINRs that are not NaN"),
    ({3: "zero", 7: "inf"}, "cannot power-normalize a precoding matrix of power 0.0"),
    ({3: "inf", 7: "nan"}, "cannot power-normalize a precoding matrix of power inf"),
])
def test_failing_frame_of_a_block_raises_as_on_its_own(small_scenario, monkeypatch, faults,
                                                       message):
    # two frames of one block fail; the block raises the error of the lower one,
    # as the frames precoded one at a time do
    scenario, policy = small_scenario, "random"
    cfg = scenario.config
    p_tx = cfg.tx_power(scenario.n_beams)
    alpha = cfg.noise_power_w / p_tx
    state = engine.build_iteration(scenario, 2, engine.draw_iteration(scenario, 2.5e-4, 0))
    clean = engine._evaluate_policy(scenario, policy, state, 0, alpha, p_tx, True, False)
    n_frames = len(clean.rates)
    assert n_frames <= engine._CHUNK_ROWS // (scenario.n_beams ** 2 * 2)   # one block
    sched, trace = clean.traces["schedule.csv"], clean.traces["sinr_trace.csv"]
    rows = state.first_cluster + sched["cluster"].reshape(n_frames, -1)
    h = state.draw.h
    # frames are recognised by their content, the same in a block and alone
    power_faults = {clustering.cluster_means(h, state.clusters[rows[f]]).tobytes(): kind
                    for f, kind in faults.items() if kind != "nan"}
    first_frame = {}
    for frame, user in zip(trace["frame"], trace["user"]):
        first_frame.setdefault(user, frame - 1)
    # users first served in a "nan" frame get a NaN SINR
    nan_users = [u for u, f in first_frame.items() if faults.get(f) == "nan"][:1]
    assert len(nan_users) == ("nan" in faults.values())

    mmse, sinr = precoding.mmse_precoder, precoding.precoded_sinr

    def faulty_mmse(frames, alpha):
        w = mmse(frames, alpha)
        n = frames.shape[-1]
        for frame, w_frame in zip(frames.reshape(-1, n, n), w.reshape(-1, n, n)):
            kind = power_faults.get(frame.tobytes())
            if kind == "zero":
                w_frame[...] = 0.0
            elif kind == "inf":
                w_frame[0, 0] = np.inf
        return w

    def faulty_sinr(users, *args):
        g = sinr(users, *args)
        for user in nan_users:
            g[(users == h[user]).all(axis=-1)] = np.nan
        return g

    monkeypatch.setattr(precoding, "mmse_precoder", faulty_mmse)
    monkeypatch.setattr(precoding, "precoded_sinr", faulty_sinr)
    with pytest.raises(ValidationError) as alone:
        per_frame_reference(scenario, policy, state, 0, alpha, p_tx)
    with pytest.raises(ValidationError) as blocked:
        engine._evaluate_policy(scenario, policy, state, 0, alpha, p_tx, False, False)
    assert str(blocked.value) == str(alone.value) == message


def test_gsa_frames_match_sector_bound(small_scenario):
    state = engine.build_iteration(small_scenario, 2, engine.draw_iteration(small_scenario, 2.5e-4, 0))
    res = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), iteration=0,
                               collect_trace=True)[2]
    data = res.per_policy["gsa"]
    sched = data.traces["schedule.csv"]
    n_beams = small_scenario.n_beams
    n_sectors = small_scenario.config.sector_grid().n_sectors
    # clusters of beam b in sector q, from the sector labels the scheduler read
    beam = np.repeat(np.arange(n_beams), state.n_clusters)
    counts = np.zeros((n_beams, n_sectors), dtype=int)
    np.add.at(counts, (beam, state.sector), 1)
    # each populated sector runs exactly max_b |members_b(q)| frames
    for q in range(n_sectors):
        assert int((data.sectors == q).sum()) == counts[:, q].max()
    # a beam borrows exactly when its own sector is empty
    assert np.array_equal(sched["borrowed"],
                          counts[sched["beam"], sched["sector"]] == 0)
    assert len(sched["beam"]) == len(data.sectors) * n_beams


@pytest.mark.parametrize("k", [1, 2, 3])
def test_euclidean_similarity_clusters_tangent_plane_positions(k):
    # each beam's block of the table is MaxDist on its users' tangent-plane
    # xy, as global user ids; K = 3 leaves each beam's last cluster short
    scenario = bundled_scenario("beams_hex7.json", user_density=2.5e-4,
                                clustering_similarity="euclidean")
    draw = engine.draw_iteration(scenario, 2.5e-4, 0)
    state = engine.build_iteration(scenario, k, draw)
    dep = draw.deployment
    for bi, beam in enumerate(scenario.beams):
        users = np.flatnonzero(dep.beam_idx == bi)
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        dep.lat[users], dep.lon[users])
        local = clustering.max_dist_partition(np.column_stack([x, y]), k, beam.beam_id)
        first, n = state.first_cluster[bi], state.n_clusters[bi]
        assert n == len(local)
        assert np.array_equal(state.clusters[first:first + n],
                              np.where(local >= 0, users[local], -1))
    # the configured space decides: channel-space MaxDist partitions otherwise
    in_channel_space = bundled_scenario("beams_hex7.json", user_density=2.5e-4)
    other = engine.build_iteration(in_channel_space, k, draw)
    assert not np.array_equal(other.clusters, state.clusters)


def test_draw_hashes_are_digests_of_the_arrays_bytes(small_scenario):
    draw = engine.draw_iteration(small_scenario, 2.5e-4, 0)
    dep = draw.deployment
    assert draw.channel_hash == hashlib.sha256(draw.h.tobytes()).hexdigest()
    assert draw.deployment_hash == hashlib.sha256(
        np.column_stack([dep.lat, dep.lon, dep.slant_range_m]).tobytes()).hexdigest()


def test_channel_map_blocks_join_seamlessly(small_scenario, tmp_path, monkeypatch):
    draw = engine.draw_iteration(small_scenario, 2.5e-4, 0)
    magnitude_db = 20.0 * np.log10(np.abs(draw.h))
    n_users, n_beams = magnitude_db.shape
    whole = engine.write_channel_map(tmp_path, 2.5e-4, draw.deployment, magnitude_db)
    expected = open(whole).read()
    # 5 users per block: several blocks and a shorter last one
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 5 * n_beams + 3)
    assert n_users % 5 != 0
    os.remove(whole)
    blocks = engine.write_channel_map(tmp_path, 2.5e-4, draw.deployment, magnitude_db)
    text = open(blocks).read()
    assert text == expected
    assert len(text.splitlines()) == 1 + n_users * n_beams


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


def test_table_writer_append_joins_tables(tmp_path):
    table = {"user": np.arange(6), "sinr_db": np.linspace(-1.0, 1.0, 6)}
    whole = tmp_path / "whole.csv"
    engine._write_table(whole, table)
    parts = tmp_path / "parts.csv"
    for i, rows in enumerate((slice(0, 2), slice(2, 2), slice(2, 6))):
        engine._write_table(parts, {k: v[rows] for k, v in table.items()}, append=i > 0)
    assert parts.read_text() == whole.read_text()


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
    sweeps = {
        "cell": ([(2, 2.5e-4)], False),
        "sweep": ([(k, rho) for k in (1, 2, 4) for rho in (2.5e-4, 4e-4)], True),
    }
    for name, (sweep, channel_map) in sweeps.items():
        trees = []
        for threads in (1, 2):
            out = tmp_path / f"{name}{threads}"
            engine.run_experiment(small_scenario, sweep=sweep, out_dir=str(out),
                                  threads=threads, iterations=2, channel_map=channel_map)
            trees.append(tree_files(out))
        t1, t2 = trees
        assert t1.keys() == t2.keys()
        for path in t1:
            assert t1[path] == t2[path], f"{name}: {path} differs across thread counts"
    assert sum(path.startswith("channel_map") for path in t1) == 2


def worker_start(names):
    """How a worker process was started, and the named variables it sees."""
    return type(multiprocessing.current_process()).__name__, [os.getenv(n) for n in names]


def test_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = engine._BLAS_THREAD_VARIABLES
    with engine._worker_pool(2) as pool:
        started = list(pool.map(worker_start, [names] * 4))
    # spawned, so numpy loads its BLAS in the worker, after the variables are set
    assert started == [("SpawnProcess", ["1"] * len(names))] * 4
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ


def test_policies_share_deployment(small_scenario):
    # separate single-policy runs still consume identical deployments/channels
    for it in range(2):
        a = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("random",), it)[2]
        b = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), it)[2]
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


def test_out_of_range_cluster_size_is_a_cell_diagnostic(small_scenario, tmp_path):
    # the sweep's K is held to the config's rule for cluster_size; K = -1 used to
    # raise a bare ValueError from np.full and abort the run
    out = tmp_path / "sweep"
    reports, _ = engine.run_experiment(
        small_scenario, sweep=[(-1, 2.5e-4), (2, 2.5e-4)], out_dir=str(out), iterations=1,
    )
    assert list(reports) == [(2, 2.5e-4)]
    assert (out / "diagnostics.txt").read_text() == (
        "K=-1 rho=0.00025: config field 'cluster_size' must be >= 1\n")
    assert not (out / "K-1_rho0.00025").exists()


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


def test_size_failing_mid_run_leaves_no_files(small_scenario, tmp_path, monkeypatch):
    # K=4 fails at iteration 1, after its iteration 0 was written
    run_iteration = engine.run_iteration

    def failing_at_one(*args, **kwargs):
        by_size = run_iteration(*args, **kwargs)
        if args[4] == 1 and 4 in by_size:
            by_size[4] = ValidationError("injected failure")
        return by_size

    monkeypatch.setattr(engine, "run_iteration", failing_at_one)
    trees = []
    for name, ks in (("with4", (1, 2, 4)), ("without4", (1, 2))):
        out = tmp_path / name
        reports, _ = engine.run_experiment(small_scenario, sweep=[(k, 2.5e-4) for k in ks],
                                           out_dir=str(out), iterations=3, channel_map=True)
        assert sorted(reports) == [(1, 2.5e-4), (2, 2.5e-4)]
        trees.append(tree_files(out))
    assert not (tmp_path / "with4" / "K4_rho0.00025").exists()
    assert (tmp_path / "with4" / "diagnostics.txt").read_text() == (
        "K=4 rho=0.00025: injected failure\n")
    kept = [path for path in trees[1] if path != "manifest.json"]
    assert sorted(trees[0]) == sorted(kept + ["diagnostics.txt", "manifest.json"])
    for path in kept:
        assert trees[0][path] == trees[1][path], f"{path} differs"


def test_rerun_starts_each_sweep_cell_empty(small_scenario, tmp_path, monkeypatch):
    # an untraced rerun used to leave the earlier run's schedule.csv and
    # sinr_trace.csv beside its own rates.csv, and a cell failing before it
    # wrote anything the earlier run's whole directory
    out = tmp_path / "out"
    engine.run_experiment(small_scenario, sweep=[(k, 2.5e-4) for k in (1, 2, 4)],
                          out_dir=str(out), iterations=1)
    earlier_k1 = {path: data for path, data in tree_files(out).items()
                  if path.startswith("K1_")}
    run_iteration = engine.run_iteration

    def failing_k4(*args, **kwargs):
        by_size = run_iteration(*args, **kwargs)
        by_size[4] = ValidationError("injected failure")
        return by_size

    monkeypatch.setattr(engine, "run_iteration", failing_k4)
    _, manifest = engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4), (4, 2.5e-4)],
                                        out_dir=str(out), iterations=1, write_traces=False)
    assert not (out / "K4_rho0.00025").exists()
    k2 = sorted(path for path in tree_files(out) if path.startswith("K2_"))
    assert k2 == [path for path in manifest.artifacts if path.startswith("K2_")]
    assert not any(path.endswith(("schedule.csv", "sinr_trace.csv")) for path in k2)
    # a cell outside the sweep is left as it was
    assert {path: data for path, data in tree_files(out).items()
            if path.startswith("K1_")} == earlier_k1


def test_unexpected_cell_error_propagates(small_scenario, monkeypatch):
    def broken_build(*args, **kwargs):
        raise RuntimeError("bug in a pipeline stage")

    monkeypatch.setattr(engine, "build_iteration", broken_build)
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
