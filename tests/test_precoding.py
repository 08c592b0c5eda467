import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import channel, engine
from beamsim.clustering import cluster_means
from beamsim.engine import build_iteration, draw_iteration
from beamsim.errors import ValidationError
from beamsim.precoding import (
    mmse_precoder,
    nonprecoded_sinr,
    normalize_power,
    precoded_sinr,
)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def explicit_inverse_oracle(h, alpha):
    """Textbook evaluation with an explicit matrix inverse."""
    return np.linalg.inv(h.conj().T @ h + alpha * np.eye(len(h))) @ h.conj().T


# ---------------------------------------------------------------------------
# closed forms and the inverse oracle
# ---------------------------------------------------------------------------

def test_identity_channel_closed_form():
    h = np.eye(3, dtype=complex)
    for alpha in (1e-6, 0.5, 2.0):
        w = mmse_precoder(h, alpha)
        assert np.allclose(w, np.eye(3) / (1.0 + alpha), rtol=1e-12)


def test_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        h = random_complex(rng, (n, n))
        alpha = float(rng.uniform(0.01, 1.0))
        w = mmse_precoder(h, alpha)
        oracle = explicit_inverse_oracle(h, alpha)
        err = np.linalg.norm(w - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-10


def test_bad_inputs_rejected():
    with pytest.raises(ValidationError):
        mmse_precoder(np.full((2, 2), np.nan + 0j), 0.1)
    with pytest.raises(ValidationError):
        mmse_precoder(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(ValidationError, match="must be a positive scalar"):
        mmse_precoder(np.eye(2, dtype=complex), np.array([0.1, 0.2]))   # per beam
    with pytest.raises(ValidationError):
        mmse_precoder(np.ones((2, 3), dtype=complex), 0.1)


# ---------------------------------------------------------------------------
# power normalization
# ---------------------------------------------------------------------------

def test_sum_power_identity_unchanged():
    w = np.eye(4, dtype=complex)
    assert np.allclose(normalize_power(w, "sum-power", 2.0), w)


def test_sum_power_scales_by_frobenius():
    w = 2.0 * np.eye(4, dtype=complex)
    scaled = normalize_power(w, "sum-power", 2.0)
    assert np.allclose(scaled, np.eye(4))  # beta = sqrt(4/16) = 1/2


def test_sum_power_budget_invariant():
    rng = np.random.default_rng(11)
    p_tx = 3.7
    for _ in range(20):
        n = int(rng.integers(2, 7))
        w = normalize_power(random_complex(rng, (n, n)), "sum-power", p_tx)
        radiated = np.sum(np.abs(w * np.sqrt(p_tx)) ** 2)
        assert radiated == pytest.approx(n * p_tx, rel=1e-9)


def test_none_mode_and_zero_matrix():
    # a caller naming another normalization is refused, never given sum-power
    w = 5.0 * np.eye(2, dtype=complex)
    for mode in ("none", "per-antenna", "equal"):
        with pytest.raises(ValidationError, match=f"unknown normalization mode '{mode}'"):
            normalize_power(w, mode, 1.0)
    with pytest.raises(ValidationError):
        normalize_power(np.zeros((2, 2), dtype=complex), "sum-power", 1.0)


@pytest.mark.parametrize("mode", ["sum-power"])
def test_non_finite_power_rejected(mode):
    # dividing by an infinite or NaN power used to return a NaN matrix
    for w in ([[np.inf, 1.0], [1.0, 1.0]], [[np.nan, 1.0], [1.0, 1.0]]):
        with pytest.raises(ValidationError, match="power"):
            normalize_power(np.array(w, dtype=complex), mode, 1.0)


# ---------------------------------------------------------------------------
# stacks of frames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 7, 19])
def test_stacked_frames_equal_their_slices(n):
    # each frame of a leading stack axis gets its 2-D call's result, bit for bit
    rng = np.random.default_rng(16)
    f, m = 5, 3 * n
    h = random_complex(rng, (f, n, n))
    alpha = float(rng.uniform(0.01, 1.0))
    w = mmse_precoder(h, alpha)
    assert w.shape == (f, n, n)
    for i in range(f):
        np.testing.assert_array_equal(w[i], mmse_precoder(h[i], alpha))
    scaled = normalize_power(w, "sum-power", 2.0)
    for i in range(f):
        np.testing.assert_array_equal(scaled[i], normalize_power(w[i], "sum-power", 2.0))
    users = random_complex(rng, (f, m, n))
    serving = rng.integers(0, n, size=(f, m))
    g = precoded_sinr(users, serving, w, 1.5)
    assert g.shape == (f, m)
    for i in range(f):
        np.testing.assert_array_equal(g[i], precoded_sinr(users[i], serving[i], w[i], 1.5))


@pytest.mark.parametrize("mode", ["sum-power"])
def test_stack_power_error_names_lowest_failing_frame(mode):
    w = np.tile(np.eye(3, dtype=complex), (5, 1, 1))
    w[3, 0, 0] = np.inf
    w[1] = 0.0
    w[4, 1, 1] = np.nan
    with pytest.raises(ValidationError) as stacked:
        normalize_power(w, mode, 1.0)
    with pytest.raises(ValidationError) as alone:
        normalize_power(w[1], mode, 1.0)
    assert str(stacked.value) == str(alone.value) == (
        "cannot power-normalize a precoding matrix of power 0.0")
    with pytest.raises(ValidationError, match="power inf"):
        normalize_power(w[2:], mode, 1.0)


def test_stack_with_a_non_finite_frame_rejected():
    h = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    h[2, 1, 0] = np.nan
    for frames in (h, h[2]):
        with pytest.raises(ValidationError, match="frame matrix must be finite and square"):
            mmse_precoder(frames, 0.1)
    with pytest.raises(ValidationError, match="square"):
        mmse_precoder(np.ones((2, 3, 2), dtype=complex), 0.1)


# ---------------------------------------------------------------------------
# SINR evaluation
# ---------------------------------------------------------------------------

def test_single_beam_interference_free():
    h = np.array([[0.8 - 0.3j]])
    w = np.array([[1.2 + 0.1j]])
    p_tx = 2.5
    prec, nonprec = precoded_sinr(h, [0], w, p_tx), nonprecoded_sinr(h, [0], p_tx)
    assert prec[0] == pytest.approx(p_tx * abs(h[0, 0] * w[0, 0]) ** 2, rel=1e-12)
    assert nonprec[0] == pytest.approx(p_tx * abs(h[0, 0]) ** 2, rel=1e-12)


def brute_force_sinr(h_users, serving, w, p_tx):
    """Term-by-term summation oracle with explicit python loops."""
    prec = []
    nonprec = []
    for h, b in zip(h_users, serving):
        sig = p_tx * abs(sum(h[k] * w[k, b] for k in range(len(h)))) ** 2
        interf = 0.0
        for j in range(w.shape[1]):
            if j == b:
                continue
            interf += p_tx * abs(sum(h[k] * w[k, j] for k in range(len(h)))) ** 2
        prec.append(sig / (interf + 1.0))
        sig_np = p_tx * abs(h[b]) ** 2
        interf_np = sum(p_tx * abs(h[j]) ** 2 for j in range(len(h)) if j != b)
        nonprec.append(sig_np / (interf_np + 1.0))
    return np.array(prec), np.array(nonprec)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h_frame = random_complex(rng, (3, 3))
        w = normalize_power(mmse_precoder(h_frame, 0.1), "sum-power", 1.5)
        h_users = random_complex(rng, (6, 3))
        serving = rng.integers(0, 3, size=6)
        prec = precoded_sinr(h_users, serving, w, 1.5)
        nonprec = nonprecoded_sinr(h_users, serving, 1.5)
        oracle_prec, oracle_nonprec = brute_force_sinr(h_users, serving, w, 1.5)
        assert np.allclose(prec, oracle_prec, rtol=1e-12)
        assert np.allclose(nonprec, oracle_nonprec, rtol=1e-12)


@pytest.mark.parametrize("n_beams, n_users", [(7, 5000), (19, 2000), (71, 500)])
def test_identity_precoder_is_no_precoding(n_beams, n_users):
    # the two SINR paths share one formula: W = I gives the non-precoded SINRs
    # to the bit, over users that span several of nonprecoded_sinr's blocks
    assert n_users > 2 * (channel._BLOCK_VALUES // n_beams)
    rng = np.random.default_rng(n_beams)
    h = random_complex(rng, (n_users, n_beams))
    serving = rng.integers(0, n_beams, size=n_users)
    np.testing.assert_array_equal(precoded_sinr(h, serving, np.eye(n_beams), 3.0),
                                  nonprecoded_sinr(h, serving, 3.0))


def test_orthogonal_rows_precoding_helps():
    rng = np.random.default_rng(13)
    for scale in (0.5, 2.0, 5.0):
        h = scale * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        p_tx = 1.8
        w = normalize_power(mmse_precoder(h, 1e-3), "sum-power", p_tx)
        prec, nonprec = precoded_sinr(h, [0, 1], w, p_tx), nonprecoded_sinr(h, [0, 1], p_tx)
        assert (prec >= nonprec).all()


def test_well_separated_physical_frames_mostly_gain():
    """Unicast frames with pairwise channel-vector angles > 30 degrees.

    The all-users-gain property is the typical regime, not a theorem: the
    sum-power budget couples the beams, so a lucky low-interference user can
    still beat the equalized precoded level.  Assert the regime statistically
    on physically synthesized channels.
    """
    from conftest import bundled_scenario
    from beamsim import channel as chn
    from beamsim.scenario import deploy_users

    scenario = bundled_scenario("beams_hex7.json")
    cfg = scenario.config
    sat = scenario.satellite_ecef_km
    rf = chn.beam_rf_parameters(scenario.beams, sat, cfg.tx_aperture_efficiency)
    users = deploy_users(scenario.beams, 2.5e-4, 123, sat)
    lat = np.array([u.lat for u in users])
    lon = np.array([u.lon for u in users])
    slant = np.array([u.slant_range_m for u in users])
    beam_index = {b.beam_id: i for i, b in enumerate(scenario.beams)}
    bidx = np.array([beam_index[u.beam_id] for u in users])
    h_all = chn.channel_matrix(lat, lon, slant, bidx, rf, sat, cfg, np.zeros(7))

    def min_pairwise_angle(h):
        worst = np.pi
        for i in range(len(h)):
            for j in range(i + 1, len(h)):
                c = abs(np.vdot(h[i], h[j])) / (np.linalg.norm(h[i]) * np.linalg.norm(h[j]))
                worst = min(worst, np.arccos(min(c, 1.0)))
        return np.degrees(worst)

    rng = np.random.default_rng(40)
    p_tx = scenario.p_tx
    alpha = 1.0 / p_tx                  # the engine's regularization
    frames = frames_all_gain = users_total = users_gain = 0
    while frames < 150:
        pick = np.array([rng.choice(np.flatnonzero(bidx == b)) for b in range(7)])
        h = h_all[pick]
        if min_pairwise_angle(h) <= 30.0:
            continue
        frames += 1
        w = normalize_power(mmse_precoder(h, alpha), "sum-power", p_tx)
        prec = precoded_sinr(h, np.arange(7), w, p_tx)
        nonprec = nonprecoded_sinr(h, np.arange(7), p_tx)
        frames_all_gain += int((prec >= nonprec).all())
        users_total += 7
        users_gain += int((prec >= nonprec).sum())
    assert users_gain / users_total >= 0.85
    assert frames_all_gain / frames >= 0.60


def test_collocated_adjacent_users_can_lose():
    # nearly parallel rows: inverting them burns the power budget, pushing the
    # precoded SINR of at least one user below its non-precoded value
    base = np.array([3.0 + 1.0j, 2.9 + 1.1j])
    h = np.vstack([base, base * (1.0 + 1e-3) + np.array([1e-4j, 0.0])])
    p_tx = 1.0
    w = normalize_power(mmse_precoder(h, 1e-9), "sum-power", p_tx)
    prec, nonprec = precoded_sinr(h, [0, 1], w, p_tx), nonprecoded_sinr(h, [0, 1], p_tx)
    assert np.any(prec < nonprec)


def test_zero_regularization_limit_is_zero_forcing():
    rng = np.random.default_rng(14)
    for _ in range(10):
        h = random_complex(rng, (4, 4))
        if np.linalg.cond(h) > 50.0:    # conditioning guard
            continue
        w = mmse_precoder(h, 1e-8)
        assert np.linalg.norm(h @ w - np.eye(4)) < 1e-4


def test_paper_rule_on_physical_channel_equals_normalized_mode(scenario19):
    # The engine's channel is divided by sqrt(P_Z) (unit noise).  The paper's
    # alpha = P_Z / P_TX on the physical channel H sqrt(P_Z) must give, after
    # sum-power normalization, the precoder of alpha = 1 / P_TX on H.
    cfg = scenario19.config
    state = build_iteration(scenario19, cfg.cluster_size,
                            draw_iteration(scenario19, cfg.user_density, 0))
    p_z = cfg.noise_power_w
    p_tx = scenario19.p_tx
    for frame in range(4):
        h = cluster_means(state.draw.h, state.clusters[state.first_cluster + frame])
        w_phys = normalize_power(mmse_precoder(h * np.sqrt(p_z), p_z / p_tx), "sum-power", p_tx)
        w_norm = normalize_power(mmse_precoder(h, 1.0 / p_tx), "sum-power", p_tx)
        assert np.linalg.norm(w_phys - w_norm) <= 1e-10 * np.linalg.norm(w_norm)


def test_precoded_sinr_shapes():
    h = random_complex(np.random.default_rng(15), (5, 4))
    w = np.eye(4, dtype=complex)
    g = precoded_sinr(h, np.zeros(5, dtype=int), w, 1.0)
    assert g.shape == (5,)
    assert (g >= 0).all() and np.isfinite(g).all()
    g2 = nonprecoded_sinr(h[0], [2], 1.0)
    assert g2.shape == (1,)


# ---------------------------------------------------------------------------
# oracles on ill-conditioned frames
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    log_spread=st.floats(-12.0, 0.0),
    log_alpha=st.floats(-12.0, 0.0),
    log_p_tx=st.floats(-1.0, 3.0),
)
def test_oracles_on_near_collinear_frames(n, seed, log_spread, log_alpha, log_p_tx):
    # rows = one common vector + a perturbation of 10^log_spread: near-collinear
    # users, with cond(H) up to about 1e12 and beyond
    rng = np.random.default_rng(seed)
    h = random_complex(rng, (1, n)) + 10.0 ** log_spread * random_complex(rng, (n, n))
    alpha, p_tx = 10.0 ** log_alpha, 10.0 ** log_p_tx
    gram = h.conj().T @ h + alpha * np.eye(n)
    w = mmse_precoder(h, alpha)
    # the solve is backward stable whatever the conditioning ...
    residual = np.linalg.norm(gram @ w - h.conj().T)
    assert residual <= 10 * n * EPS * np.linalg.norm(gram) * np.linalg.norm(w)
    # ... and matches the explicit inverse to within the Gram matrix's condition
    oracle = explicit_inverse_oracle(h, alpha)
    err = np.linalg.norm(w - oracle) / np.linalg.norm(oracle)
    assert err <= 50 * n * EPS * np.linalg.cond(gram)

    # SINRs of the frame's own users against the term-by-term oracle, within the
    # rounding of the dot products h_i w_j: bounded by (sum_k |h_ik| |w_kj|)^2
    w = normalize_power(w, "sum-power", p_tx)
    serving = np.arange(n)
    prec = precoded_sinr(h, serving, w, p_tx)
    oracle_prec, _ = brute_force_sinr(h, serving, w, p_tx)
    g = p_tx * np.abs(h @ w) ** 2
    bound = p_tx * (np.abs(h) @ np.abs(w)) ** 2
    own = bound[serving, serving]
    interference = g.sum(axis=1) - g[serving, serving]
    tol = 16 * n * EPS * (own + prec * (bound.sum(axis=1) - own)) / (interference + 1.0)
    assert (np.abs(prec - oracle_prec) <= tol).all()


# ---------------------------------------------------------------------------
# the oracles on the engine's own 71-beam frames
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def europe71_draw():
    from conftest import bundled_scenario

    scenario = bundled_scenario("beams_europe71.json")
    return scenario, draw_iteration(scenario, scenario.config.user_density, 0)


@pytest.mark.parametrize("k", [1, 2, 8])
def test_oracles_on_europe71_frames(europe71_draw, k):
    # sampled frames of one full-scale draw, both policies: the engine's block
    # precoding against the explicit inverse, a sample of members against the
    # term-by-term SINRs (serving beam = the beam whose slot holds the member),
    # every rate against the ModCod row of its cluster's worst member, and the
    # loss flag against its definition
    scenario, draw = europe71_draw
    cfg, h = scenario.config, draw.h
    n_beams = scenario.n_beams
    p_tx = cfg.satellite_total_power / n_beams
    alpha = 1.0 / p_tx
    state = build_iteration(scenario, k, draw)
    rng = np.random.default_rng(k)
    for policy in engine.POLICIES:
        data = engine._evaluate_policy(scenario, policy, state, 0)
        n_frames = len(data.rates)
        first_member = np.concatenate(([0], np.cumsum(data.frame_members)))
        # the first and last frames, a random one and the first without a loss
        lossless = np.flatnonzero(~data.loss_flags)[:1].tolist()
        for f in sorted({0, n_frames - 1, int(rng.integers(n_frames)), *lossless}):
            table = state.clusters[state.first_cluster + data.schedule.selection[f]]
            per_beam = [row[row >= 0] for row in table]
            sizes = [len(m) for m in per_beam]
            served = slice(first_member[f], first_member[f + 1])
            members, prec = data.members[served], data.precoded[served]
            np.testing.assert_array_equal(members, np.concatenate(per_beam))

            h_frame = np.array([h[m].sum(axis=0) / len(m) for m in per_beam])
            w = explicit_inverse_oracle(h_frame, alpha)
            w = w * np.sqrt(n_beams / np.sum(np.abs(w) ** 2))
            gram = h_frame.conj().T @ h_frame + alpha * np.eye(n_beams)
            # the allowance of perfbench/checks.py's `precoder_tolerance`
            tol = max(1e-10, 1e3 * np.linalg.cond(gram) * np.finfo(float).eps)
            serving = np.repeat(np.arange(n_beams), sizes)
            pick = rng.choice(len(members), size=6, replace=False)
            oracle_prec, oracle_nonprec = brute_force_sinr(h[members[pick]], serving[pick], w,
                                                           p_tx)
            np.testing.assert_allclose(prec[pick], oracle_prec, rtol=20.0 * tol)
            np.testing.assert_allclose(draw.nonprec[members[pick]], oracle_nonprec, rtol=1e-12)

            modcod = scenario.modcod
            for b, start in enumerate(np.cumsum([0] + sizes[:-1])):
                worst_db = 10.0 * np.log10(prec[start:start + sizes[b]].min())
                cleared = [e for t, e in zip(modcod.thresholds_db, modcod.efficiencies)
                           if worst_db >= t]
                assert data.rates[f, b] == (cleared[-1] if cleared else 0.0), (policy, f, b)
            assert data.loss_flags[f] == any(
                p < draw.nonprec[m] for p, m in zip(prec, members)), (policy, f)
