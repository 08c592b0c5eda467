"""Acceptance suite: one test per criterion, each printing a pass line.

The heavy cells (19 beams, density 2.5e-3, 100 iterations) are computed once
and shared; criteria 8 and 9 also run the 71-beam layout.  Criteria assert
both the documented behavior and their stated runtime budgets.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from beamsim import engine, geometry
from beamsim.geometry import SectorGrid
from beamsim.precoding import (
    mmse_precoder,
    nonprecoded_sinr,
    normalize_power,
    precoded_sinr,
)
from beamsim.scheduling import random_schedule

from conftest import bundled_scenario
from test_precoding import brute_force_sinr, explicit_inverse_oracle, random_complex
from test_scheduling import gsa, members, sectorisation_from_counts

DENSITY = 2.5e-3
ITERATIONS = 100
THREADS = min(2, os.cpu_count() or 1)

_cells = {}


@pytest.fixture(scope="module")
def scenario19():
    return bundled_scenario("beams_hex19.json")


def cell(scenario, cluster_size):
    """Paired random/GSA metrics for one cluster size, cached across criteria.

    The first call runs the whole K = 1, 2, 4, 8 sweep, which draws each
    iteration's users and channel once for all four cells.
    """
    if not _cells:
        reports, _ = engine.run_experiment(
            scenario, sweep=[(k, DENSITY) for k in (1, 2, 4, 8)], policies=("random", "gsa"),
            iterations=ITERATIONS, threads=THREADS,
        )
        _cells.update({k: report for (k, _), report in reports.items()})
    return _cells[cluster_size]


def passline(num, name, elapsed, detail):
    print(f"[acceptance] criterion {num} ({name}): PASS in {elapsed:.1f}s — {detail}")


def paired_gain(report):
    """Mean GSA - random eta over the paired iterations, with its 95% t-interval."""
    diffs = report.policies["gsa"].per_iteration_eta - report.policies["random"].per_iteration_eta
    mean = float(np.mean(diffs))
    half = stats.t.ppf(0.975, len(diffs) - 1) * float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))
    return mean, mean - half, mean + half


def gain_detail(mean, low, high):
    band = "below" if mean < 0.25 else "above" if mean > 0.30 else "inside"
    return (f"gain {mean:.3f} bit/s/Hz, CI [{low:.3f}, {high:.3f}], "
            f"{band} the published 0.25-0.30 band")


# ---------------------------------------------------------------------------
# 1. MMSE oracle
# ---------------------------------------------------------------------------

def test_c1_mmse_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 4, 8):
        for _ in range(100):
            h = random_complex(rng, (n, n))
            alpha = float(rng.uniform(1e-3, 1.0))
            w = mmse_precoder(h, alpha)
            oracle = explicit_inverse_oracle(h, alpha)
            err = np.linalg.norm(w - oracle) / np.linalg.norm(oracle)
            worst = max(worst, err)
            assert err <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passline(1, "MMSE oracle", elapsed, f"max relative error {worst:.2e} over 300 matrices")


# ---------------------------------------------------------------------------
# 2. SINR oracle
# ---------------------------------------------------------------------------

def test_c2_sinr_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        h_frame = random_complex(rng, (3, 3))
        w = normalize_power(mmse_precoder(h_frame, 0.05), "sum-power", 2.0)
        h_users = random_complex(rng, (5, 3))
        serving = rng.integers(0, 3, size=5)
        prec = precoded_sinr(h_users, serving, w, 2.0)
        nonprec = nonprecoded_sinr(h_users, serving, 2.0)
        o_prec, o_nonprec = brute_force_sinr(h_users, serving, w, 2.0)
        err = max(
            np.max(np.abs(prec - o_prec) / o_prec),
            np.max(np.abs(nonprec - o_nonprec) / o_nonprec),
        )
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passline(2, "SINR oracle", elapsed, f"max relative error {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# 3. Geometry suite
# ---------------------------------------------------------------------------

def test_c3_geometry_suite():
    start = time.perf_counter()
    scenario = bundled_scenario("beams_hex7.json")
    grid = scenario.config.sector_grid()
    rng = np.random.default_rng(103)
    for beam in scenario.beams:
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        [beam.center_lat, *beam.boundary[:, 0]],
                                        [beam.center_lon, *beam.boundary[:, 1]])
        _, radius = geometry.normalized_polar_from_xy(beam.boundary_xy, x, y)
        assert radius[0] == 0.0
        assert (radius[1:] >= 1.0 - 1e-9).all()
        # partition totality over 10^4 uniform in-beam points
        lo = beam.boundary_xy.min(axis=0)
        hi = beam.boundary_xy.max(axis=0)
        counts = np.zeros(grid.n_sectors, dtype=int)
        accepted = 0
        while accepted < 10_000:
            cand = rng.uniform(lo, hi, size=(2 * (10_000 - accepted), 2))
            ok = geometry.point_in_polygon(beam.boundary_xy, cand[:, 0], cand[:, 1])
            x, y = cand[ok][: 10_000 - accepted].T
            q = grid.assign(*geometry.normalized_polar_from_xy(beam.boundary_xy, x, y))
            counts += np.bincount(q, minlength=grid.n_sectors)
            accepted += len(q)
        assert counts.sum() == 10_000
    for radii, angles in [
        ((0.2, 1.0), (2 * math.pi,)),
        ((0.2, 0.6, 0.8, 1.0), (math.pi / 2, math.pi, 2 * math.pi)),
        ((0.1, 0.5, 1.0), (1.0, 2.0, 4.0, 2 * math.pi)),
    ]:
        g = SectorGrid(radii, angles)
        assert g.n_sectors == g.n_rings * g.n_wedges + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passline(3, "geometry suite", elapsed,
             "endpoints exact, 7x10^4-point partition total, sector-count formula holds")


# ---------------------------------------------------------------------------
# 4. Scheduler suite
# ---------------------------------------------------------------------------

def test_c4_scheduler_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    # random scheduler: the max-count beam is served exactly once per cluster
    for _ in range(20):
        counts = rng.integers(1, 9, size=5)
        seq = random_schedule(counts, seed=int(rng.integers(1 << 30)))
        assert seq.n_frames == int(counts.max())
        b_max = int(np.argmax(counts))
        assert sorted(seq.selection[:, b_max].tolist()) == list(range(int(counts.max())))

    # hand-traced 2-beam random example: N_K = (2, 4), N_frame = 4
    for seed in range(10):
        sel = random_schedule([2, 4], seed=seed).selection
        assert sorted(sel[:2, 0].tolist()) == [0, 1]
        assert sorted(sel[:, 1].tolist()) == [0, 1, 2, 3]

    # hand-traced 2-beam GSA example: 3 clusters vs 1 in one sector
    grid = SectorGrid((0.2, 0.6, 0.8, 1.0), (math.pi / 2, math.pi, 2 * math.pi))
    counts_a = [1, 3] + [1] * (grid.n_sectors - 2)
    counts_b = [1] * grid.n_sectors
    sect_a = sectorisation_from_counts(counts_a)
    sect_b = sectorisation_from_counts(counts_b)
    seq = gsa([sect_a, sect_b], grid, seed=4)
    sel_q1 = seq.selection[seq.sector == 1]
    assert len(sel_q1) == 3
    assert sorted(sel_q1[:, 0]) == members(sect_a, 1).tolist()
    assert all(sel[1] == members(sect_b, 1)[0] for sel in sel_q1)

    # GSA invariants on random instances: homogeneity and the frame-count identity
    for trial in range(10):
        sects = [sectorisation_from_counts(rng.integers(1, 5, size=grid.n_sectors))
                 for _ in range(4)]
        seq = gsa(sects, grid, seed=trial)
        expected = sum(max(len(members(s, q)) for s in sects) for q in range(grid.n_sectors))
        assert seq.n_frames == expected
        for sel, sector in zip(seq.selection, seq.sector):
            for b in range(4):
                assert sel[b] in members(sects[b], sector)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passline(4, "scheduler suite", elapsed,
             "coverage, hand traces, sector homogeneity, frame-count identity")


# ---------------------------------------------------------------------------
# 5. Precoding-loss reproduction
# ---------------------------------------------------------------------------

def test_c5_precoding_loss(scenario19):
    start = time.perf_counter()
    report = cell(scenario19, 1)
    rand = report.policies["random"]
    gsa = report.policies["gsa"]
    assert rand.loss_frame_fraction > 0.30
    assert gsa.loss_frame_fraction < rand.loss_frame_fraction
    diffs = rand.per_iteration_loss_fraction - gsa.per_iteration_loss_fraction
    wins = int(np.sum(diffs > 0))
    n_eff = int(np.sum(diffs != 0))
    p = stats.binomtest(wins, n_eff, p=0.5, alternative="greater").pvalue
    assert p < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    passline(5, "precoding-loss reproduction", elapsed,
             f"random {rand.loss_frame_fraction:.3f} > 0.30, "
             f"gsa {gsa.loss_frame_fraction:.3f} lower, sign test {wins} of {n_eff}, p={p:.2e}")


# ---------------------------------------------------------------------------
# 6. GSA gain
# ---------------------------------------------------------------------------

def test_c6_gsa_gain(scenario19):
    start = time.perf_counter()
    details = []
    for k in (2, 4):
        mean, low, high = paired_gain(cell(scenario19, k))
        assert low > 0.0, f"K={k}: 95% CI [{low:.3f}, {high:.3f}] does not exclude 0"
        details.append(f"K={k}: " + gain_detail(mean, low, high))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    passline(6, "GSA gain", elapsed, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Trend reproduction
# ---------------------------------------------------------------------------

def test_c7_trend_eta_nonincreasing_in_k(scenario19):
    start = time.perf_counter()
    ks = (1, 2, 4, 8)
    details = []
    for policy in ("random", "gsa"):
        etas = [cell(scenario19, k).policies[policy].eta_bar for k in ks]
        increases = [b - a for a, b in zip(etas, etas[1:]) if b > a]
        assert len(increases) <= 1, f"{policy}: more than one inversion in {etas}"
        assert all(inc <= 0.05 for inc in increases), (
            f"{policy}: inversion {max(increases):.3f} exceeds the 0.05 noise allowance"
        )
        details.append(policy + ": " + " -> ".join(f"{e:.3f}" for e in etas))
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    passline(7, "trend reproduction", elapsed, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout, density, iterations, write_traces", [
    ("beams_hex7.json", 2.5e-4, 4, True),
    ("beams_europe71.json", DENSITY, 2, False),
], ids=["hex7", "europe71"])
def test_c8_determinism(tmp_path, layout, density, iterations, write_traces):
    start = time.perf_counter()
    scenario = bundled_scenario(layout, user_density=density,
                                cluster_size=2, monte_carlo_iterations=iterations)
    trees = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        engine.run_experiment(scenario, sweep=[(2, density)], out_dir=str(out),
                              threads=threads, iterations=iterations,
                              write_traces=write_traces)
        tree = {}
        for base, _, files in os.walk(out):
            for f in files:
                path = os.path.join(base, f)
                tree[os.path.relpath(path, out)] = open(path, "rb").read()
        trees.append(tree)
    assert trees[0].keys() == trees[1].keys()
    mismatched = [k for k in trees[0] if trees[0][k] != trees[1][k]]
    assert not mismatched, f"outputs differ across thread counts: {mismatched}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    passline(8, "determinism", elapsed,
             f"{layout}: {len(trees[0])} files byte-identical across thread counts 1 and 2")


# ---------------------------------------------------------------------------
# 9. GSA gain at full scale
# ---------------------------------------------------------------------------

C9_ITERATIONS = 5
C9_ETA_FLOOR = 1.0      # bit/s/Hz; a collapsed precoder scores near 0


def test_c9_gsa_gain_at_71_beams():
    start = time.perf_counter()
    scenario = bundled_scenario("beams_europe71.json")
    reports, _ = engine.run_experiment(scenario, sweep=[(2, DENSITY)], policies=("random", "gsa"),
                                       iterations=C9_ITERATIONS, threads=THREADS)
    report = reports[2, DENSITY]
    etas = {policy: report.policies[policy].eta_bar for policy in ("random", "gsa")}
    for policy, eta in etas.items():
        assert eta > C9_ETA_FLOOR, f"{policy}: eta {eta:.4f} at or below {C9_ETA_FLOOR} bit/s/Hz"
    mean, low, high = paired_gain(report)
    assert low > 0.0, f"95% CI [{low:.3f}, {high:.3f}] does not exclude 0"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    passline(9, "GSA gain at 71 beams", elapsed,
             f"K=2, {C9_ITERATIONS} iterations: random {etas['random']:.3f}, "
             f"gsa {etas['gsa']:.3f} bit/s/Hz; " + gain_detail(mean, low, high))
