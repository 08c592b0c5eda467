import csv
import hashlib
import multiprocessing
import os
import weakref

import numpy as np
import pytest

from beamsim import clustering, engine, geometry, precoding, scheduling
from beamsim.errors import ValidationError
from beamsim.link_adaptation import cluster_rates, reduce_iteration, to_db

from conftest import bundled_scenario, pooled_from_arrays


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


def test_run_iteration_smoke(small_scenario, tmp_path):
    # one draw feeds every cluster size and both policies of an iteration, and
    # its hashes, deployment and SINRs travel once
    result = engine.run_iteration(small_scenario, (1, 2), 2.5e-4, ("random", "gsa"), 0,
                                  keep_members=True)
    assert list(result.by_size) == [1, 2]
    assert len(result.users) == len(result.nonprec)
    assert result.channel_map is None
    n_beams = small_scenario.n_beams
    for k in (1, 2):
        engine._append_iteration(tmp_path / f"K{k}", result, k, traces=True)
        for policy, data in result.by_size[k].items():
            n_frames = len(data.rates)
            frame = np.arange(1, n_frames + 1)
            assert data.rates.shape == data.schedule.selection.shape == (n_frames, n_beams)
            # schedule.csv writes the (n_frames, N_B) selection, a row per element;
            # columns iteration, frame, sector, beam, cluster, borrowed
            schedule = np.loadtxt(tmp_path / f"K{k}" / policy / "schedule.csv", delimiter=",",
                                  skiprows=1, dtype=int)
            assert schedule.shape == (n_frames * n_beams, 6)
            assert (schedule[:, 1] == np.repeat(frame, n_beams)).all()
            assert (schedule[:, 2] == np.repeat(data.schedule.sector, n_beams)).all()
            assert (schedule[:, 3] == np.tile(np.arange(n_beams), n_frames)).all()
            assert (schedule[:, 4] == data.schedule.selection.ravel()).all()
            assert (schedule[:, 5] == data.schedule.borrowed.ravel()).all()
            # sinr_trace.csv: a row per member, with its frame and its own beam;
            # columns iteration, frame, beam, user, precoded_db, nonprecoded_db
            trace = np.loadtxt(tmp_path / f"K{k}" / policy / "sinr_trace.csv", delimiter=",",
                               skiprows=1)
            assert (trace[:, 1] == np.repeat(frame, data.frame_members)).all()
            assert (trace[:, 3] == data.members).all()
            assert (trace[:, 2] == result.users.beam_idx[data.members]).all()
            # SINRs in dB, written to 10 significant digits
            np.testing.assert_allclose(trace[:, 4], to_db(data.precoded), rtol=1e-9)
            np.testing.assert_allclose(trace[:, 5], to_db(result.nonprec[data.members]),
                                       rtol=1e-9)
        # the user map only counts scheduled frames; columns beam, user, lat,
        # lon, mean_precoded_db, mean_nonprecoded_db, frames_served
        umap = np.loadtxt(tmp_path / f"K{k}" / "gsa" / "user_map.csv", delimiter=",",
                          skiprows=1)
        assert (umap[:, 6] > 0).all()   # GSA serves every cluster
        assert np.isfinite(umap[:, 4]).all()
    later = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), 1, channel_map=True)
    data = later.by_size[2]["gsa"]
    assert (data.members, data.precoded, data.frame_members, later.nonprec) == (None,) * 4
    assert later.channel_map.shape == (len(later.users), n_beams)


def _plain(fields):
    """{field name: value}, arrays as lists, so that == compares every value."""
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in fields.items()}


def _report_values(report):
    return {policy: _plain(vars(agg)) for policy, agg in report.policies.items()}


def test_sweep_reports_pool_their_own_iterations(small_scenario):
    # each cell's report aggregates exactly the results of its own K, density and
    # iterations, computed here one cell-iteration at a time and pooled from the
    # whole arrays
    sweep = [(1, 2.5e-4), (2, 2.5e-4), (2, 4e-4)]
    reports, _ = engine.run_experiment(small_scenario, sweep=sweep, iterations=2)
    assert list(reports) == sweep
    for k, rho in sweep:
        results = [engine.run_iteration(small_scenario, (k,), rho, engine.POLICIES, it).by_size[k]
                   for it in range(2)]
        rates = {p: [r[p].rates for r in results] for p in engine.POLICIES}
        loss = {p: [r[p].loss_flags for r in results] for p in engine.POLICIES}
        for policy, agg in reports[k, rho].policies.items():
            frames = [len(r) for r in rates[policy]]
            assert agg.per_iteration_frames.tolist() == frames
            assert agg.n_frames == sum(frames)
            assert agg.n_iterations == 2
            assert 0.0 <= agg.loss_frame_fraction <= 1.0
        assert _report_values(reports[k, rho]) == {
            p: _plain(pooled_from_arrays(rates[p], loss[p])) for p in engine.POLICIES}
    # the single-cell entry point reports what the sweep does
    assert _report_values(engine.run_cell(small_scenario, 2, 4e-4, iterations=2)) == (
        _report_values(reports[2, 4e-4]))


def per_frame_reference(scenario, policy, state, iteration, p_tx):
    """A policy's frames precoded one at a time with the 2-D precoding calls.

    Returns its schedule, rates and loss flags, the members served frame
    after frame with their precoded SINRs, and each frame's member count,
    computed as the engine does with its alpha = 1 / P_TX.
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
        w = precoding.normalize_power(precoding.mmse_precoder(eqvec, 1.0 / p_tx), "sum-power", p_tx)
        members = table[table >= 0]
        prec = precoding.precoded_sinr(h[members], dep.beam_idx[members], w, p_tx)
        rates[fi] = cluster_rates(prec, state.cluster_sizes[rows], scenario.modcod)
        loss_flags[fi] = bool(np.any(prec < nonprec[members]))
        frame_members.append(members)
        frame_prec.append(prec)
    return engine.PolicyIterationData(
        seq, rates, loss_flags, reduce_iteration(rates, loss_flags),
        np.concatenate(frame_members), np.concatenate(frame_prec),
        np.array([len(m) for m in frame_members]))


def assert_same_frames(data, reference):
    for name in ("selection", "sector", "borrowed"):
        np.testing.assert_array_equal(getattr(data.schedule, name),
                                      getattr(reference.schedule, name), err_msg=name, strict=True)
    for name in ("rates", "loss_flags", "members", "precoded", "frame_members"):
        np.testing.assert_array_equal(getattr(data, name), getattr(reference, name),
                                      err_msg=name, strict=True)
    assert data.metrics == reference.metrics


def write_cell(path, draw, cluster_size, policy, data):
    """The files `_append_iteration` writes for one policy's data as iteration 0, traced."""
    result = engine.IterationResult(0, draw.deployment_hash, draw.channel_hash,
                                    {cluster_size: {policy: data}}, draw.deployment, draw.nonprec)
    engine._append_iteration(path, result, cluster_size, traces=True)
    return tree_files(path)


@pytest.mark.parametrize("layout", ["beams_hex7.json", "beams_hex19.json"])
def test_frame_blocks_match_per_frame_loop(layout, monkeypatch, tmp_path):
    # every frame of a block is precoded to the bit as it is on its own; blocks
    # of the default size, of one frame, and with a shorter last block.  Every
    # table column is checked through the files the two write.
    scenario = bundled_scenario(layout)
    cfg = scenario.config
    n_beams = scenario.n_beams
    p_tx = cfg.tx_power(n_beams)
    for iteration in (0, 1):
        draw = engine.draw_iteration(scenario, cfg.user_density, iteration)
        for k in (1, 2, 4, 8):
            state = engine.build_iteration(scenario, k, draw)
            for policy in engine.POLICIES:
                reference = per_frame_reference(scenario, policy, state, iteration, p_tx)
                expected = write_cell(tmp_path / f"{iteration}-{k}-{policy}", draw, k, policy,
                                      reference)
                assert len(expected) == 6
                n_frames = len(reference.rates)
                step = next(s for s in (3, 4, 5, 7) if n_frames % s)
                for chunk in (engine._CHUNK_ROWS, 1, n_beams * n_beams * k * step):
                    monkeypatch.setattr(engine, "_CHUNK_ROWS", chunk)
                    data = engine._evaluate_policy(scenario, policy, state, iteration, p_tx, True)
                    assert_same_frames(data, reference)
                    monkeypatch.undo()
                    assert write_cell(tmp_path / f"{iteration}-{k}-{policy}-{chunk}", draw, k,
                                      policy, data) == expected


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
    state = engine.build_iteration(scenario, 2, engine.draw_iteration(scenario, 2.5e-4, 0))
    clean = engine._evaluate_policy(scenario, policy, state, 0, p_tx, True)
    n_frames = len(clean.rates)
    assert n_frames <= engine._CHUNK_ROWS // (scenario.n_beams ** 2 * 2)   # one block
    rows = state.first_cluster + clean.schedule.selection
    h = state.draw.h
    # frames are recognised by their content, the same in a block and alone
    power_faults = {clustering.cluster_means(h, state.clusters[rows[f]]).tobytes(): kind
                    for f, kind in faults.items() if kind != "nan"}
    first_frame = {}
    for frame, user in zip(np.repeat(np.arange(n_frames), clean.frame_members), clean.members):
        first_frame.setdefault(user, frame)
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
        per_frame_reference(scenario, policy, state, 0, p_tx)
    with pytest.raises(ValidationError) as blocked:
        engine._evaluate_policy(scenario, policy, state, 0, p_tx, False)
    assert str(blocked.value) == str(alone.value) == message


def test_gsa_frames_match_sector_bound(small_scenario):
    state = engine.build_iteration(small_scenario, 2, engine.draw_iteration(small_scenario, 2.5e-4, 0))
    seq = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), iteration=0
                               ).by_size[2]["gsa"].schedule
    n_beams = small_scenario.n_beams
    n_sectors = small_scenario.config.sector_grid().n_sectors
    # clusters of beam b in sector q, from the sector labels the scheduler read
    beam = np.repeat(np.arange(n_beams), state.n_clusters)
    counts = np.zeros((n_beams, n_sectors), dtype=int)
    np.add.at(counts, (beam, state.sector), 1)
    # each populated sector runs exactly max_b |members_b(q)| frames
    for q in range(n_sectors):
        assert int((seq.sector == q).sum()) == counts[:, q].max()
    # a beam borrows exactly when its own sector is empty
    assert seq.borrowed.shape == (seq.n_frames, n_beams)
    assert np.array_equal(seq.borrowed, counts[np.arange(n_beams), seq.sector[:, None]] == 0)


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
    with pytest.raises(ValueError, match="differ in shape"):
        engine._write_table(path, {"a": [1, 2], "b": [1.0]})


@pytest.mark.parametrize("chunk", [1, 3 * 4, 5 * 4 + 3, 65536])
def test_table_writer_2d_equals_its_ravelled_form(tmp_path, monkeypatch, chunk):
    # an (n, m) table writes a row per element in C order, in blocks of whole
    # leading-axis rows, whatever the block size
    n, m = 11, 4
    rng = np.random.default_rng(3)
    value = rng.normal(size=(n, m))
    flag = rng.integers(0, 2, (n, m)).astype(bool)
    grid = {
        "row": np.broadcast_to(np.arange(n)[:, None], (n, m)),
        "col": np.broadcast_to(np.arange(m), (n, m)),
        "tag": np.broadcast_to(np.array([f"{v:04x}" for v in range(n)])[:, None], (n, m)),
        "iteration": np.broadcast_to(7, (n, m)),
        "flag": flag,
        "value": value,
    }
    flat = {
        "row": np.repeat(np.arange(n), m),
        "col": np.tile(np.arange(m), n),
        "tag": np.repeat(np.array([f"{v:04x}" for v in range(n)]), m),
        "iteration": np.full(n * m, 7),
        "flag": flag.ravel(),
        "value": value.ravel(),
    }
    expected = tmp_path / "flat.csv"
    engine._write_table(expected, flat)
    monkeypatch.setattr(engine, "_CHUNK_ROWS", chunk)
    blocks = list(engine.table_blocks(grid))
    assert len(blocks) == 1 + -(-n // max(1, chunk // m))
    written = tmp_path / "grid.csv"
    engine._write_table(written, grid)
    assert written.read_text() == expected.read_text()
    assert len(expected.read_text().splitlines()) == 1 + n * m


@pytest.mark.parametrize("shapes", [
    [(6,), (6, 1)],
    [(6,), (1,)],
    [(1,), (6,)],
    [(3, 2), (2, 3)],
    [(6,), ()],
    [(), ()],
], ids=["n-against-n1", "n-against-1", "1-against-n", "nm-against-mn", "scalar", "all-scalars"])
def test_table_writer_does_not_broadcast(tmp_path, shapes):
    # every column has exactly the table's shape, with at least one axis
    path = tmp_path / "t.csv"
    columns = {f"c{i}": np.zeros(shape) for i, shape in enumerate(shapes)}
    with pytest.raises(ValueError, match="differ in shape"):
        engine._write_table(path, columns)
    assert not path.exists()


def test_table_writer_checks_dtypes_before_opening(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(TypeError, match="complex"):
        engine._write_table(path, {"a": np.arange(3), "z": np.array([1j, 2j, 3j])})
    assert not path.exists()


def test_table_writer_floats_match_format():
    # 10 significant digits across the exponent range, subnormals and specials
    rng = np.random.default_rng(11)
    n = 20_000
    x = rng.uniform(-10.0, 10.0, n) * 10.0 ** rng.integers(-300, 300, n).astype(float)
    x = np.concatenate([x, [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1.8e308]])
    lines = "".join(engine.table_blocks({"x": x})).splitlines()
    assert lines[0] == "x"
    assert lines[1:] == [format(v, ".10g") for v in x.tolist()]


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
        a = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("random",), it)
        b = engine.run_iteration(small_scenario, (2,), 2.5e-4, ("gsa",), it)
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
        result = run_iteration(*args, **kwargs)
        if args[4] == 1 and 4 in result.by_size:
            result.by_size[4] = ValidationError("injected failure")
        return result

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


def failing_at_iteration_0(sizes, density):
    """`engine.run_iteration` with `sizes` of `density` failing at iteration 0."""
    run_iteration = engine.run_iteration

    def failing(*args, **kwargs):
        result = run_iteration(*args, **kwargs)
        if args[4] == 0 and args[2] == density:
            result.by_size.update(dict.fromkeys(sizes, ValidationError("injected failure")))
        return result

    return failing


def test_channel_map_written_once_when_the_first_size_fails(small_scenario, tmp_path,
                                                            monkeypatch):
    # K = 1 fails at iteration 0; the map is written once, by the next size,
    # as a run of K = 2 alone writes it
    alone = tmp_path / "alone"
    engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], out_dir=str(alone), iterations=2,
                          channel_map=True)
    monkeypatch.setattr(engine, "run_iteration", failing_at_iteration_0((1,), 2.5e-4))
    out = tmp_path / "out"
    reports, manifest = engine.run_experiment(
        small_scenario, sweep=[(k, 2.5e-4) for k in (1, 2, 4)], out_dir=str(out), iterations=2,
        channel_map=True)
    assert list(reports) == [(2, 2.5e-4), (4, 2.5e-4)]
    name = "channel_map_rho0.00025.csv"
    assert [path for path in manifest.artifacts if path.startswith("channel_map")] == [name]
    assert (out / name).read_bytes() == (alone / name).read_bytes()


def test_no_channel_map_when_every_size_fails(small_scenario, tmp_path, monkeypatch):
    # every size of one density fails at iteration 0: that density writes no
    # map, and the other density's map is written as usual
    monkeypatch.setattr(engine, "run_iteration", failing_at_iteration_0((1, 2), 2.5e-4))
    reports, manifest = engine.run_experiment(
        small_scenario, sweep=[(1, 2.5e-4), (2, 2.5e-4), (2, 4e-4)], out_dir=str(tmp_path),
        iterations=2, channel_map=True)
    assert list(reports) == [(2, 4e-4)]
    assert sorted(path.name for path in tmp_path.glob("channel_map*")) == [
        "channel_map_rho0.0004.csv"]
    assert [path for path in manifest.artifacts if path.startswith("channel_map")] == [
        "channel_map_rho0.0004.csv"]


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
        result = run_iteration(*args, **kwargs)
        result.by_size[4] = ValidationError("injected failure")
        return result

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


def test_unknown_policy_rejected_before_any_draw(small_scenario, tmp_path, monkeypatch):
    # a misspelt policy used to draw and evaluate every iteration, then fail
    # each cell on its own
    def no_draw(*args):
        raise AssertionError("a unit started")

    monkeypatch.setattr(engine, "draw_iteration", no_draw)
    out = tmp_path / "bogus"
    with pytest.raises(ValidationError, match="unknown scheduler policy 'bogus'"):
        engine.run_experiment(small_scenario, sweep=[(2, 2.5e-4)], policies=("gsa", "bogus"),
                              out_dir=str(out), iterations=1)
    assert not out.exists()


def test_repeated_policies_run_once(small_scenario, tmp_path):
    # as a repeated sweep cell does: once, where it first appears
    trees = []
    for name, policies in (("repeated", ("gsa", "gsa", "random", "gsa")),
                           ("once", ("gsa", "random"))):
        out = tmp_path / name
        reports, manifest = engine.run_experiment(
            small_scenario, sweep=[(2, 2.5e-4)], policies=policies, out_dir=str(out),
            iterations=1)
        assert manifest.policies == ["gsa", "random"]
        assert list(reports[2, 2.5e-4].policies) == ["gsa", "random"]
        trees.append(tree_files(out))
    assert trees[0] == trees[1]


def test_an_iteration_is_dropped_before_the_next_arrives(small_scenario, tmp_path, monkeypatch):
    # a run holds one iteration's arrays whatever its iteration count: when
    # iteration i + 1 is drawn, iteration i's schedules, rates, loss flags,
    # members and SINRs, deployment and channel map are dead without a garbage
    # collection, also beside a cluster size that fails
    run_iteration, build_iteration = engine.run_iteration, engine.build_iteration

    def failing_k4(scenario, cluster_size, draw):
        if cluster_size == 4:
            raise ValidationError("injected failure")
        return build_iteration(scenario, cluster_size, draw)

    refs = []                   # (iteration, K, what) -> weak reference

    def tracked(*args, **kwargs):
        held = [key for key, ref in refs if ref() is not None]
        assert not held, f"held when iteration {args[4]} is drawn: {held}"
        result = run_iteration(*args, **kwargs)
        drawn = {"users": result.users, "nonprec": result.nonprec,
                 "channel map": result.channel_map}
        refs.extend(((args[4], None, what), weakref.ref(a))
                    for what, a in drawn.items() if a is not None)
        for k, per_policy in result.by_size.items():
            if isinstance(per_policy, Exception):
                continue
            for policy, data in per_policy.items():
                arrays = {"rates": data.rates, "loss": data.loss_flags,
                          "members": data.members, "precoded": data.precoded,
                          "frame members": data.frame_members,
                          **{f"schedule {name}": getattr(data.schedule, name)
                             for name in ("selection", "sector", "borrowed")}}
                refs.extend(((args[4], k, f"{policy} {what}"), weakref.ref(a))
                            for what, a in arrays.items())
        return result

    monkeypatch.setattr(engine, "run_iteration", tracked)
    monkeypatch.setattr(engine, "build_iteration", failing_k4)
    # K = 4 fails between the others, so the last size of an iteration succeeds
    reports, _ = engine.run_experiment(small_scenario, sweep=[(k, 2.5e-4) for k in (1, 4, 2)],
                                       out_dir=str(tmp_path), iterations=4, channel_map=True)
    assert list(reports) == [(1, 2.5e-4), (2, 2.5e-4)]
    assert {key[2] for key, _ in refs} >= {"channel map", "users", "nonprec", "gsa rates",
                                           "random precoded", "gsa members",
                                           "gsa schedule borrowed"}
    assert sum(key[2] == "channel map" for key, _ in refs) == 1
    assert not [key for key, ref in refs if ref() is not None]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_directory_reads_back_consistent(small_scenario, tmp_path):
    # every aggregate the run writes, recomputed from the rows it wrote beside
    # them; the files hold floats to 10 significant digits (%.10g), hence the
    # tolerance
    def close(written, expected):
        return np.isclose(float(written), expected, rtol=1e-9, atol=1e-9)

    sweep = [(1, 2.5e-4), (2, 2.5e-4)]
    engine.run_experiment(small_scenario, sweep=sweep, out_dir=str(tmp_path), iterations=2,
                          write_traces=False)
    summary = {(int(r["cluster_size"]), r["policy"]): r
               for r in _read_csv(tmp_path / "summary.csv")}
    gains = {int(r["cluster_size"]): float(r["gain"]) for r in _read_csv(tmp_path / "gains.csv")}
    assert sorted(summary) == [(k, p) for k, _ in sweep for p in ("gsa", "random")]
    assert sorted(gains) == [k for k, _ in sweep]
    for k, rho in sweep:
        for policy in engine.POLICIES:
            cell = tmp_path / f"K{k}_rho{rho:g}" / policy
            # columns iteration, frame, beam, rate and iteration, frame, sector, loss
            rates = np.loadtxt(cell / "rates.csv", delimiter=",", skiprows=1)
            frames = np.loadtxt(cell / "frames.csv", delimiter=",", skiprows=1)
            rows = _read_csv(cell / "iterations.csv")
            assert [int(r["iteration"]) for r in rows] == [0, 1]
            for it, row in enumerate(rows):
                r, f = rates[rates[:, 0] == it, 3], frames[frames[:, 0] == it, 3]
                assert int(row["n_frames"]) == len(f)
                assert len(r) == len(f) * small_scenario.n_beams
                assert close(row["eta_bar"], r.mean()), (k, policy, it)
                assert close(row["loss_frame_fraction"], f.mean()), (k, policy, it)
            pooled = summary[k, policy]
            assert close(pooled["eta_bar"], rates[:, 3].mean()), (k, policy)
            assert close(pooled["loss_frame_fraction"], frames[:, 3].mean()), (k, policy)
            assert int(pooled["n_frames"]) == len(frames)
            assert int(pooled["n_iterations"]) == 2
        assert close(gains[k], float(summary[k, "gsa"]["eta_bar"])
                     - float(summary[k, "random"]["eta_bar"])), k
