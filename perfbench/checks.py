"""Checks of a `beamsim run` directory against computations made apart from it.

Every check reads the files the run wrote and recomputes what they claim
with code of its own: the channel is rebuilt through the public
`deploy_users`/`channel_matrix` functions and confirmed against the recorded
hashes, precoders come from an explicit matrix inverse, SINRs from a
term-by-term sum, rates from a lookup in the ModCod CSV, and the summary
tables from the per-frame rate traces.  Failures are keyed by the
(cluster size, iteration) cell-iteration they invalidate.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import beamsim
from beamsim import precoding
from beamsim.geometry import satellite_ecef_km

BOLTZMANN = 1.380649e-23       # J/K
POLICIES = ("random", "gsa")
SEED_DEPLOY, SEED_PHASES = 0, 1   # purposes of the documented per-iteration seed streams
FRAMES_PER_CELL = 2               # sampled frames per (K, policy, iteration) for the oracles
THRESHOLD_SLACK_DB = 1e-6         # SINRs this close to a ModCod threshold may round either way
SUMMARY_RTOL = 1e-9               # tables are written with 10 significant digits


@dataclass(frozen=True)
class RunSpec:
    """What the run was asked to do; everything the checks recompute from."""

    run_dir: Path
    config: dict                  # the scenario config mapping the run loaded
    layout: Path
    modcod: Path
    cluster_sizes: tuple
    density: float
    iterations: int
    master_seed: int
    traces: bool


class Failures:
    """Reasons for failure per (cluster size, iteration).

    A cell the program itself reported as failed (in `diagnostics.txt`) is
    `raised`; any other reason means the run wrote a wrong or missing output.
    """

    def __init__(self, spec: RunSpec):
        self.spec = spec
        self.reasons = defaultdict(list)
        self.raised = set()

    def add(self, k, iteration, reason):
        self.reasons[(int(k), int(iteration))].append(reason)

    def add_cell(self, k, reason):
        for it in range(self.spec.iterations):
            self.add(k, it, reason)

    def wrong_outputs(self):
        """Cell-iterations with a failed check other than a reported failure."""
        return {key for key in self.reasons if key[0] not in self.raised}


def read_modcod(path):
    """(thresholds_db, efficiencies) from the two-column ModCod CSV."""
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    table = np.array([[float(a), float(b)] for a, b in rows[1:] if a.strip()])
    return table[:, 0], table[:, 1]


def lookup_rate(worst_db, thresholds, efficiencies):
    """Efficiency of the highest threshold at or below each SINR; 0 below the table."""
    worst_db = np.atleast_1d(np.asarray(worst_db, dtype=float))
    cleared = (thresholds[None, :] <= worst_db[:, None]).sum(axis=1)
    return np.where(cleared > 0, efficiencies[np.maximum(cleared - 1, 0)], 0.0)


def rate_matches(rate, worst_db, thresholds, efficiencies):
    """True where `rate` equals the lookup of `worst_db`, either side of a near-tie."""
    ok = np.isclose(rate, lookup_rate(worst_db, thresholds, efficiencies), rtol=1e-12, atol=0)
    for shift in (-THRESHOLD_SLACK_DB, THRESHOLD_SLACK_DB):
        ok |= np.isclose(rate, lookup_rate(worst_db + shift, thresholds, efficiencies),
                         rtol=1e-12, atol=0)
    return ok


def explicit_inverse_precoder(h_frame, alpha, n_beams):
    """Sum-power-normalized W = (H^H H + alpha I)^-1 H^H with an explicit inverse."""
    gram = h_frame.conj().T @ h_frame + alpha * np.eye(len(h_frame))
    w = np.linalg.inv(gram) @ h_frame.conj().T
    return w * math.sqrt(n_beams / float(np.sum(np.abs(w) ** 2)))


def term_by_term_sinr(h_users, serving, w, p_tx):
    """(precoded, non-precoded) SINRs summed one interference term at a time."""
    prec, nonprec = [], []
    n = w.shape[1]
    for h, b in zip(h_users, serving):
        terms = [p_tx * abs(sum(h[k] * w[k, j] for k in range(n))) ** 2 for j in range(n)]
        prec.append(terms[b] / (sum(t for j, t in enumerate(terms) if j != b) + 1.0))
        raw = [p_tx * abs(h[j]) ** 2 for j in range(n)]
        nonprec.append(raw[b] / (sum(t for j, t in enumerate(raw) if j != b) + 1.0))
    return np.array(prec), np.array(nonprec)


def db(x):
    return 10.0 * np.log10(np.maximum(x, 1e-300))


def _load(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _cell_dir(spec, k, policy):
    return spec.run_dir / f"K{k}_rho{spec.density:g}" / policy


def _rebuild(spec, beams, cfg, iteration):
    """Deployment and channel of one iteration through the public API."""
    seed = spec.master_seed
    sat = satellite_ecef_km(cfg.satellite_longitude)
    users = beamsim.deploy_users(
        beams, spec.density, np.random.SeedSequence((seed, iteration, SEED_DEPLOY)), sat
    )
    lat = np.array([u.lat for u in users])
    lon = np.array([u.lon for u in users])
    slant = np.array([u.slant_range_m for u in users])
    index = {b.beam_id: i for i, b in enumerate(beams)}
    beam_idx = np.array([index[u.beam_id] for u in users])
    rng = np.random.default_rng(np.random.SeedSequence((seed, iteration, SEED_PHASES)))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(beams))
    rf = beamsim.beam_rf_parameters(beams, sat, cfg.tx_aperture_efficiency)
    h = beamsim.channel_matrix(lat, lon, slant, beam_idx, rf, sat, cfg, phases)
    dep_hash = hashlib.sha256(np.ascontiguousarray(np.column_stack([lat, lon, slant])).tobytes())
    chan_hash = hashlib.sha256(np.ascontiguousarray(h).tobytes())
    users_per_beam = np.bincount(beam_idx, minlength=len(beams))
    return dep_hash.hexdigest(), chan_hash.hexdigest(), h, users_per_beam


def check_run(spec: RunSpec, rng) -> Failures:
    """Run every check on `spec.run_dir`; `rng` picks the frames the oracles sample."""
    if spec.config.get("normalization_mode", "sum-power") != "sum-power":
        raise ValueError("the precoder oracle implements sum-power normalization only")
    fail = Failures(spec)
    cfg = beamsim.load_config(spec.config)
    beams = beamsim.load_beams(str(spec.layout))
    n_beams = len(beams)
    thresholds, efficiencies = read_modcod(spec.modcod)

    diagnostics = spec.run_dir / "diagnostics.txt"
    if diagnostics.exists():
        for line in diagnostics.read_text().splitlines():
            m = re.match(r"K=(\d+) rho=", line)
            if m:
                fail.raised.add(int(m.group(1)))
                fail.add_cell(int(m.group(1)), f"diagnostics: {line}")

    # recorded hashes and per-iteration rows, per cell
    cells = {}
    for k in spec.cluster_sizes:
        for policy in POLICIES:
            d = _cell_dir(spec, k, policy)
            needed = ["iterations.csv", "rates.csv", "frames.csv"]
            if spec.traces:
                needed += ["schedule.csv", "sinr_trace.csv"]
            missing = [n for n in needed if not (d / n).exists()]
            if missing:
                fail.add_cell(k, f"{policy}: missing {missing}")
                continue
            with open(d / "iterations.csv") as fh:
                rows = {int(r["iteration"]): r for r in csv.DictReader(fh)}
            for it in range(spec.iterations):
                if it not in rows:
                    fail.add(k, it, f"{policy}: iteration row missing")
            cells[(k, policy)] = rows

    # deployment and channel rebuilt apart from the run, hashes identical everywhere
    channels = {}
    for it in range(spec.iterations):
        dep, chan, h, users_per_beam = _rebuild(spec, beams, cfg, it)
        channels[it] = (h, users_per_beam)
        for (k, policy), rows in cells.items():
            row = rows.get(it)
            if row is None:
                continue
            if row["deployment_hash"] != dep or row["channel_hash"] != chan:
                fail.add(k, it, f"{policy}: deployment/channel hash differs from the rebuild")

    p_tx = cfg.satellite_total_power / n_beams
    for k in spec.cluster_sizes:
        totals = {}
        for policy in POLICIES:
            if (k, policy) not in cells:
                continue
            totals[policy] = _check_cell(spec, fail, k, policy, cells[(k, policy)], channels,
                                         efficiencies)
            if spec.traces:
                _check_traces(spec, fail, k, policy, channels, thresholds, efficiencies,
                              p_tx, rng)
        _check_summary(spec, fail, k, totals)
    return fail


def _check_cell(spec, fail, k, policy, rows, channels, efficiencies):
    """Rates, frame counts and per-iteration aggregates of one (K, policy) cell.

    Returns (mean rate, mean loss flag, frame count) pooled over iterations.
    """
    d = _cell_dir(spec, k, policy)
    rates = _load(d / "rates.csv")          # iteration, frame, beam, rate
    frames = _load(d / "frames.csv")        # iteration, frame, sector, loss
    valid = np.concatenate(([0.0], efficiencies))
    on_table = np.isclose(rates[:, 3][:, None], valid[None, :], rtol=1e-12, atol=0).any(axis=1)
    for it in np.unique(rates[~on_table, 0]):
        fail.add(k, it, f"{policy}: rate neither 0 nor a table efficiency")
    for it in range(spec.iterations):
        row = rows.get(it)
        if row is None:
            continue
        r = rates[rates[:, 0] == it, 3]
        f = frames[frames[:, 0] == it]
        n_frames = int(row["n_frames"])
        users_per_beam = channels[it][1]
        n_beams = len(users_per_beam)
        if len(f) != n_frames or len(r) != n_frames * n_beams:
            fail.add(k, it, f"{policy}: {len(f)} frame rows, {len(r)} rate rows "
                            f"for {n_frames} frames")
            continue
        if not np.isclose(float(row["eta_bar"]), r.mean(), rtol=SUMMARY_RTOL, atol=1e-12):
            fail.add(k, it, f"{policy}: iterations.csv eta_bar differs from rates.csv")
        if not np.isclose(float(row["loss_frame_fraction"]), f[:, 3].mean(),
                          rtol=SUMMARY_RTOL, atol=1e-12):
            fail.add(k, it, f"{policy}: loss fraction differs from frames.csv")
        if policy == "random":
            expected = math.ceil(users_per_beam.max() / k)
            if n_frames != expected:
                fail.add(k, it, f"random: {n_frames} frames, expected ceil(max n_b / K) = "
                                f"{expected}")
    return rates[:, 3].mean(), frames[:, 3].mean(), len(frames)


def _check_summary(spec, fail, k, totals):
    """summary.csv and gains.csv recomputed from the rate and frame traces."""
    summary = spec.run_dir / "summary.csv"
    gains = spec.run_dir / "gains.csv"
    if not summary.exists() or not gains.exists():
        fail.add_cell(k, "summary.csv or gains.csv missing")
        return
    with open(summary) as fh:
        srows = [r for r in csv.DictReader(fh) if int(r["cluster_size"]) == k]
    with open(gains) as fh:
        grows = [r for r in csv.DictReader(fh) if int(r["cluster_size"]) == k]
    by_policy = {r["policy"]: r for r in srows}
    for policy, (eta, loss, n_frames) in totals.items():
        r = by_policy.get(policy)
        if r is None:
            fail.add_cell(k, f"summary.csv has no {policy} row")
            continue
        if not (np.isclose(float(r["eta_bar"]), eta, rtol=SUMMARY_RTOL, atol=1e-12)
                and np.isclose(float(r["loss_frame_fraction"]), loss, rtol=SUMMARY_RTOL,
                               atol=1e-12)
                and int(r["n_frames"]) == n_frames
                and int(r["n_iterations"]) == spec.iterations):
            fail.add_cell(k, f"summary.csv {policy} row differs from the traces")
        if not eta > 0:
            fail.add_cell(k, f"{policy}: average spectral efficiency is {eta}")
    if len(totals) == 2:
        gain = totals["gsa"][0] - totals["random"][0]
        if len(grows) != 1 or not np.isclose(float(grows[0]["gain"]), gain,
                                             rtol=SUMMARY_RTOL, atol=1e-9):
            fail.add_cell(k, "gains.csv differs from gsa - random recomputed from rates.csv")


def _check_traces(spec, fail, k, policy, channels, thresholds, efficiencies, p_tx, rng):
    """Scheduler coverage, rate lookup and the precoder/SINR oracles on one cell."""
    d = _cell_dir(spec, k, policy)
    sched = _load(d / "schedule.csv").astype(int)   # iteration, frame, sector, beam, cluster, borrowed
    trace = _load(d / "sinr_trace.csv")             # iteration, frame, beam, user, prec, nonprec
    rates = _load(d / "rates.csv")
    alpha = _alpha(spec.config, p_tx)
    for it in range(spec.iterations):
        h, users_per_beam = channels[it]
        n_beams = len(users_per_beam)
        n_clusters = -(-users_per_beam // k)
        s = sched[sched[:, 0] == it]
        for b in range(n_beams):
            mine = s[s[:, 3] == b]
            mine = mine[np.argsort(mine[:, 1], kind="stable")]
            if policy == "random":
                sweep = mine[: n_clusters[b], 4]
                if sorted(sweep.tolist()) != list(range(n_clusters[b])):
                    fail.add(k, it, f"random: beam {b} sweep does not serve each cluster once")
            elif set(mine[:, 4].tolist()) != set(range(n_clusters[b])):
                fail.add(k, it, f"gsa: beam {b} does not serve every cluster")

        t = trace[trace[:, 0] == it]
        key = t[:, 1].astype(np.int64) * n_beams + t[:, 2].astype(np.int64)
        groups, inverse, sizes = np.unique(key, return_inverse=True, return_counts=True)
        worst = np.full(len(groups), np.inf)
        np.minimum.at(worst, inverse, t[:, 4])
        if np.any(sizes > k):
            fail.add(k, it, f"{policy}: a frame serves more than K members of one beam")
        r = rates[rates[:, 0] == it]
        r_key = r[:, 1].astype(np.int64) * n_beams + r[:, 2].astype(np.int64)
        if not np.array_equal(np.sort(r_key), groups):
            fail.add(k, it, f"{policy}: sinr_trace.csv and rates.csv cover different frames")
            continue
        order = np.argsort(r_key)
        if not np.all(rate_matches(r[order, 3], worst, thresholds, efficiencies)):
            fail.add(k, it, f"{policy}: rate differs from the ModCod lookup of the worst SINR")

        frame_ids = np.unique(t[:, 1]).astype(int)
        for fr in rng.choice(frame_ids, size=min(FRAMES_PER_CELL, len(frame_ids)),
                             replace=False):
            rows = t[t[:, 1] == fr]
            reason = _oracle_frame(rows, h, n_beams, alpha, p_tx)
            if reason:
                fail.add(k, it, f"{policy}: frame {fr}: {reason}")


def _alpha(config, p_tx):
    if config.get("regularization_mode", "paper") == "paper":
        noise = BOLTZMANN * float(config["noise_temperature"]) * float(config["user_bandwidth"])
        return noise / p_tx
    return 1.0 / p_tx


def precoder_tolerance(gram):
    """Relative forward-error allowance for W computed two ways from `gram`."""
    return max(1e-10, 1e3 * np.linalg.cond(gram) * np.finfo(float).eps)


def _oracle_frame(rows, h, n_beams, alpha, p_tx):
    """Compare one traced frame with the explicit-inverse and term-by-term oracles."""
    beam = rows[:, 2].astype(int)
    users = rows[:, 3].astype(int)
    if sorted(set(beam.tolist())) != list(range(n_beams)):
        return "not every beam is served"
    h_frame = np.vstack([h[users[beam == b]].mean(axis=0) for b in range(n_beams)])
    w = explicit_inverse_precoder(h_frame, alpha, n_beams)
    w_prog = precoding.normalize_power(precoding.mmse_precoder(h_frame, alpha), "sum-power", p_tx)
    gram = h_frame.conj().T @ h_frame + alpha * np.eye(n_beams)
    err = np.linalg.norm(w_prog - w) / np.linalg.norm(w)
    tol = precoder_tolerance(gram)
    if err > tol:
        return f"precoder differs from the explicit inverse by {err:.1e} (allowed {tol:.1e})"
    prec, nonprec = term_by_term_sinr(h[users], beam, w, p_tx)
    # trace values carry 10 significant digits; the precoder itself agrees to `tol`
    digits = 1e-8 * np.maximum(1.0, np.abs(rows[:, 4:6]))
    bad_prec = np.abs(db(prec) - rows[:, 4]) > digits[:, 0] + 20.0 * tol
    bad_non = np.abs(db(nonprec) - rows[:, 5]) > digits[:, 1]
    if bad_prec.any() or bad_non.any():
        return (f"{int(bad_prec.sum())} precoded and {int(bad_non.sum())} non-precoded SINRs "
                "differ from the term-by-term oracle")
    return None
