import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j1, jv, yv

from beamsim import channel, geometry
from beamsim.channel import (
    GAIN_FLOOR_REL,
    _SPLIT_U,
    _TAIL_ALPHA,
    _TAIL_BETA,
    beam_rf_parameters,
    bessel_taper_gain,
    channel_matrix,
    draw_phases,
    taper_bracket,
)
from beamsim import engine
from beamsim.engine import build_iteration, draw_iteration
from beamsim.clustering import cluster_means
from beamsim.precoding import nonprecoded_sinr
from beamsim.scenario import config_from_mapping, deploy_users

from conftest import bundled_scenario
from test_scenario import table_config

BOLTZMANN = 1.380649e-23


@pytest.fixture(scope="module")
def cfg():
    return config_from_mapping(table_config())


# ---------------------------------------------------------------------------
# antenna pattern
# ---------------------------------------------------------------------------

def test_boresight_gain_is_peak():
    g = bessel_taper_gain(0.0, math.radians(0.3), 1e5)
    assert g == pytest.approx(1e5, rel=1e-9)


def test_half_power_at_theta_3db():
    # independent check of the tapered-aperture expression at u = 2.07123
    t3 = math.radians(0.3)
    u = 2.07123
    bracket = j1(u) / (2 * u) + 36.0 * jv(3, u) / u**3
    assert bracket**2 == pytest.approx(0.5, rel=1e-2)
    g = bessel_taper_gain(t3, t3, 1.0)
    assert g == pytest.approx(0.5, rel=1e-2)


def test_sidelobes_below_minus_20db():
    t3 = math.radians(0.3)
    g = bessel_taper_gain(3.0 * t3, t3, 1.0)
    assert 10.0 * math.log10(g) < -20.0
    # independent evaluation of the same expression
    u = 2.07123 * math.sin(3 * t3) / math.sin(t3)
    expect = (j1(u) / (2 * u) + 36.0 * jv(3, u) / u**3) ** 2
    assert g == pytest.approx(max(expect, GAIN_FLOOR_REL), rel=1e-9)


def test_main_lobe_monotone_decreasing():
    t3 = math.radians(0.25)
    thetas = np.linspace(0.0, 1.6 * t3, 200)
    g = bessel_taper_gain(thetas, t3, 1.0)
    assert (np.diff(g) < 0).all()


def jv_bracket(u):
    """J1(u)/2u + 36 J3(u)/u^3 with scipy's jv for J3; its limit 1 below u = 1e-8."""
    u = np.abs(np.asarray(u, dtype=float))
    small = u < 1e-8
    us = np.where(small, 1.0, u)
    return np.where(small, 1.0, j1(us) / (2.0 * us) + 36.0 * jv(3, us) / us**3)


def bracket_nulls(u_max=60.0):
    grid = np.linspace(1e-3, u_max, 60_001)
    b = jv_bracket(grid)
    flips = np.flatnonzero(np.sign(b[:-1]) != np.sign(b[1:]))
    return np.array([brentq(jv_bracket, grid[i], grid[i + 1], xtol=1e-15) for i in flips])


def test_pattern_matches_jv_oracle():
    nulls = bracket_nulls()
    assert len(nulls) >= 15                       # every sidelobe null up to u = 60
    near_nulls = (nulls[:, None] + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6])).ravel()
    u = np.concatenate([
        np.linspace(0.0, 60.0, 200_001),
        [1e-300, 1e-12, 1e-9, 1e-8 * (1.0 - 1e-12), 1e-8, 1e-6, 1e-3, 0.5],
        _SPLIT_U + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]),
        near_nulls,
        # past u ~ 1200 the bracket's envelope falls under the 1e-10 gain floor
        np.random.default_rng(3).uniform(60.0, 3000.0, 20_000),
        [1e6],      # like u = 0 and the split, raises no RuntimeWarning (an error here)
    ])
    expect = jv_bracket(u)
    err = np.abs(taper_bracket(u) - expect)
    assert err.max() <= 1e-14
    # relative accuracy, or absolute on the normalised bracket where it vanishes
    assert np.all((err <= 1e-11 * np.abs(expect)) | (err <= 1e-13))
    assert np.all(err[np.abs(expect) > 1e-2] <= 1e-11 * np.abs(expect[np.abs(expect) > 1e-2]))
    # above the split, relative to the sqrt(2 / pi u) / 2u envelope of J1(u)/2u;
    # at u = 1e6 scipy's jv itself is off by 1e-11 relative
    tail = (u >= _SPLIT_U) & (u <= 3000.0)
    assert np.all(err[tail] <= 1e-11 * np.sqrt(2.0 / (math.pi * u[tail])) / (2.0 * u[tail]))
    assert np.max(np.abs(taper_bracket(near_nulls))) < 1e-6
    assert np.array_equal(taper_bracket(-u[:1000]), taper_bracket(u[:1000]))   # even in u


def fit_taper_tail(split, degree, n_nodes=400):
    """Least-squares alpha(t), beta(t) of the bracket above `split`, lowest power first.

    b(u) = t^(3/2) [alpha(t) cos u + beta(t) sin u] with t = split / u; the
    targets come from b and its Y counterpart b~ = Y1(u)/2u + 36 Y3(u)/u^3 at
    the Chebyshev nodes of (0, 1).
    """
    t = 0.5 * (1.0 - np.cos(math.pi * (np.arange(n_nodes) + 0.5) / n_nodes))
    u = split / t
    b = jv(1, u) / (2.0 * u) + 36.0 * jv(3, u) / u**3
    b_y = yv(1, u) / (2.0 * u) + 36.0 * yv(3, u) / u**3
    cos, sin, scale = np.cos(u), np.sin(u), t**1.5
    fits = []
    for target in ((b * cos + b_y * sin) / scale, (b * sin - b_y * cos) / scale):
        cheb = np.polynomial.Chebyshev.fit(t, target, degree, domain=[0.0, 1.0])
        fits.append(cheb.convert(kind=np.polynomial.Polynomial).coef)
    return fits


def test_taper_tail_coefficients_refit(monkeypatch):
    alpha, beta = fit_taper_tail(_SPLIT_U, len(_TAIL_ALPHA) - 1)
    t = np.linspace(0.0, 1.0, 10_001)
    polyval = np.polynomial.polynomial.polyval
    # the committed literals are this fit, up to the rounding of the fit itself
    assert np.max(np.abs(polyval(t, alpha) - polyval(t, _TAIL_ALPHA))) <= 1e-15
    assert np.max(np.abs(polyval(t, beta) - polyval(t, _TAIL_BETA))) <= 1e-15
    # and the refit coefficients reproduce the bracket above the split
    monkeypatch.setattr(channel, "_TAIL_ALPHA", alpha)
    monkeypatch.setattr(channel, "_TAIL_BETA", beta)
    u = np.concatenate([np.linspace(_SPLIT_U, 60.0, 50_001), np.geomspace(60.0, 1e6, 1_001)])
    assert np.max(np.abs(taper_bracket(u) - jv_bracket(u))) <= 1e-14


def test_gain_matches_jv_oracle():
    t3 = math.radians(0.3)
    theta = np.linspace(0.0, math.asin(60.0 * math.sin(t3) / 2.07123), 50_001)
    u = 2.07123 * np.sin(theta) / math.sin(t3)
    expect = 3e4 * np.maximum(jv_bracket(u) ** 2, GAIN_FLOOR_REL)
    got = bessel_taper_gain(theta, t3, 3e4)
    assert np.allclose(got, expect, rtol=2e-11, atol=2e-13 * 3e4)


def test_pattern_takes_per_antenna_parameters():
    # a (users, N_B) block with theta_3db and g_max per antenna is the
    # per-column calls with scalar parameters, bit for bit
    scenario = bundled_scenario("beams_europe71.json")
    (lat, lon, _, _, rf, sat), _ = iteration0_inputs(scenario)
    users = geometry.geodetic_to_ecef_km(lat[:5000], lon[:5000]) - sat
    users /= np.linalg.norm(users, axis=1, keepdims=True)
    theta = np.arccos(np.clip(users @ rf.boresights.T, -1.0, 1.0))
    theta[0] = np.linspace(0.0, math.pi, scenario.n_beams)     # the floor beyond the horizon too
    gains = bessel_taper_gain(theta, rf.theta_3db, rf.g_max)
    for j in range(scenario.n_beams):
        np.testing.assert_array_equal(
            gains[:, j], bessel_taper_gain(theta[:, j], rf.theta_3db[j], rf.g_max[j]))


def test_beyond_horizon_clamped_to_floor():
    t3 = math.radians(0.3)
    assert bessel_taper_gain(math.pi / 2, t3, 1.0) == pytest.approx(GAIN_FLOOR_REL)
    assert bessel_taper_gain(2.0, t3, 1.0) == pytest.approx(GAIN_FLOOR_REL)


# ---------------------------------------------------------------------------
# channel coefficients
# ---------------------------------------------------------------------------

def one_beam_setup(cfg, scenario7):
    sat = geometry.satellite_ecef_km(cfg.satellite_longitude)
    rf = beam_rf_parameters(scenario7.beams, sat, cfg.tx_aperture_efficiency)
    return sat, rf


def test_magnitude_matches_link_budget(cfg, scenario7):
    """|h| recomputed from first principles with the published receive chain."""
    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[0]
    lat, lon = geometry.unproject_tangent(beam.center_lat, beam.center_lon, 80.0, -40.0)
    ecef = geometry.geodetic_to_ecef_km(float(lat), float(lon))
    slant_m = float(np.linalg.norm(ecef - sat)) * 1000.0

    phases = np.zeros(len(scenario7.beams))
    j = 2
    row = channel_matrix(np.array([float(lat)]), np.array([float(lon)]), np.array([slant_m]),
                         np.array([0]), rf, sat, cfg, phases)
    assert row.shape == (1, len(scenario7.beams))
    h = complex(row[0, j])

    # independent oracle: plain-formula evaluation
    lam = 299792458.0 / 19.5e9
    g_r = 0.6 * (math.pi * 0.6 / lam) ** 2
    g_loss = 10.0 ** (-2.55 / 10.0)
    p_z = BOLTZMANN * 250.0 * 50e6
    to_user = ecef - sat
    to_user /= np.linalg.norm(to_user)
    cos_t = float(np.dot(to_user, rf.boresights[j]))
    theta = math.acos(cos_t)
    u = 2.07123 * math.sin(theta) / math.sin(rf.theta_3db[j])
    g_tx = rf.g_max[j] * (j1(u) / (2 * u) + 36.0 * jv(3, u) / u**3) ** 2
    expected_mag = math.sqrt(g_r * g_loss * g_tx) * lam / (4.0 * math.pi * slant_m * math.sqrt(p_z))
    assert abs(h) == pytest.approx(expected_mag, rel=1e-10)
    # phase is -2 pi d / lambda with the zero random phases
    ratio = h / (abs(h) * np.exp(-1j * (2.0 * math.pi / lam) * slant_m))
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_doubling_distance_halves_magnitude(cfg, scenario7):
    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[0]
    lam = cfg.wavelength
    phases = np.zeros(len(scenario7.beams))
    kwargs = dict(user_beam_idx=np.array([0]), rf=rf, satellite_ecef_km=sat,
                  cfg=cfg, phases=phases)
    d = 38_000e3
    h1 = channel_matrix(np.array([beam.center_lat]), np.array([beam.center_lon]),
                        np.array([d]), **kwargs)[0]
    h2 = channel_matrix(np.array([beam.center_lat]), np.array([beam.center_lon]),
                        np.array([2 * d]), **kwargs)[0]
    assert np.allclose(np.abs(h1) / np.abs(h2), 2.0, rtol=1e-12)
    expected_shift = np.exp(-1j * (2.0 * math.pi / lam) * d)
    assert np.allclose(h2 / h1 * 2.0, expected_shift, rtol=1e-6)


def test_colocated_users_identical(cfg, scenario7):
    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[1]
    phases = draw_phases(len(scenario7.beams), np.random.default_rng(3))
    lat = np.array([beam.center_lat, beam.center_lat])
    lon = np.array([beam.center_lon, beam.center_lon])
    slant = np.array([38_000e3, 38_000e3])
    h = channel_matrix(lat, lon, slant, np.array([1, 1]), rf, sat, cfg, phases)
    assert np.array_equal(h[0], h[1])
    assert np.all(np.abs(h) > 0)


def test_noise_normalization_scales_with_temperature(cfg, scenario7):
    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[0]
    phases = np.zeros(len(scenario7.beams))
    args = (np.array([beam.center_lat]), np.array([beam.center_lon]), np.array([38_000e3]),
            np.array([0]), rf, sat)
    h1 = channel_matrix(*args, cfg, phases)
    h4 = channel_matrix(*args, replace(cfg, noise_temperature=4 * cfg.noise_temperature), phases)
    assert np.allclose(np.abs(h1) / np.abs(h4), 2.0, rtol=1e-12)


def test_one_phase_per_antenna(cfg, scenario7):
    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[2]
    phases = draw_phases(len(scenario7.beams), np.random.default_rng(5))
    args = (np.array([beam.center_lat]), np.array([beam.center_lon]),
            np.array([38_000e3]), np.array([2]), rf, sat)
    h = channel_matrix(*args, cfg, phases)[0]
    h_zero = channel_matrix(*args, cfg, np.zeros_like(phases))[0]
    # column j carries antenna j's phase, whatever the user's serving beam
    assert np.allclose(h, h_zero * np.exp(-1j * phases), rtol=1e-12)


def channel_matrix_out_of_place(user_lat, user_lon, slant_m, user_beam_idx, rf,
                                satellite_ecef_km, cfg, phases):
    """The channel as synthesized before it was computed in place: a new array per step."""
    sat = np.asarray(satellite_ecef_km, dtype=float)
    lam = cfg.wavelength
    d = np.asarray(slant_m, dtype=float)
    users = geometry.geodetic_to_ecef_km(user_lat, user_lon) - sat
    users = users / np.linalg.norm(users, axis=-1, keepdims=True)
    cos_off = np.clip(users @ rf.boresights.T, -1.0, 1.0)
    theta = np.arccos(cos_off)
    gains = np.empty_like(theta)
    for j in range(rf.boresights.shape[0]):
        gains[:, j] = bessel_taper_gain(theta[:, j], rf.theta_3db[j], rf.g_max[j])
    amp = (
        np.sqrt(cfg.rx_gain_linear * cfg.loss_linear * gains)
        * lam
        / (4.0 * math.pi * d[:, None] * math.sqrt(cfg.noise_power_w))
    )
    h = amp * np.exp(-1j * (2.0 * math.pi / lam) * d)[:, None]
    return h * np.exp(-1j * phases)[None, :]


def nonprecoded_sinr_one_pass(h, serving_beam, p_tx):
    """The SINRs without precoding as computed before they were split into blocks."""
    g = np.abs(h) ** 2 * p_tx
    sig = g[np.arange(len(h)), serving_beam]
    return sig / (g.sum(axis=1) - sig + 1.0)


def iteration0_inputs(scenario):
    """channel_matrix's arguments for iteration 0 of a scenario, as the engine draws them."""
    cfg = scenario.config
    sat = scenario.satellite()
    dep = deploy_users(scenario.beams, cfg.user_density,
                       engine.iteration_seed(cfg.master_seed, 0, engine._SEED_DEPLOY), sat)
    phases = draw_phases(scenario.n_beams, np.random.default_rng(
        engine.iteration_seed(cfg.master_seed, 0, engine._SEED_PHASES)))
    rf = beam_rf_parameters(scenario.beams, sat, cfg.tx_aperture_efficiency)
    return (dep.lat, dep.lon, dep.slant_range_m, dep.beam_idx, rf, sat), phases


def split_into_blocks(monkeypatch, n_users, n_beams, block_users):
    """Make `_user_blocks` cut `block_users` users per block, and check that the
    last of at least three blocks is ragged."""
    # not a multiple of N_B: the block size is rounded down to whole users
    monkeypatch.setattr(channel, "_BLOCK_VALUES", block_users * n_beams + n_beams - 1)
    sizes = [len(range(n_users)[s]) for s in channel._user_blocks(n_users, n_beams)]
    assert sum(sizes) == n_users
    assert len(sizes) >= 3 and sizes[0] == block_users and 0 < sizes[-1] < block_users
    # the pattern's row slices of a whole block end in a shorter one as well
    rows = [len(range(block_users)[s]) for s in channel._pattern_rows(block_users, n_beams)]
    assert 2 <= len(rows) <= channel._PATTERN_SLICES and 0 < rows[-1] < rows[0]


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran, above the start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("layout, block_users", [
    pytest.param(layout, None, id=layout)
    for layout in ("beams_hex7.json", "beams_hex19.json", "beams_europe71.json")
] + [
    pytest.param("beams_hex7.json", 997, id="beams_hex7.json-997-user-blocks"),
    pytest.param("beams_hex19.json", 2503, id="beams_hex19.json-2503-user-blocks"),
    pytest.param("beams_hex7.json", 50, id="beams_hex7.json-50-user-blocks"),
])
def test_in_place_synthesis_is_bit_identical(layout, block_users, monkeypatch):
    scenario = bundled_scenario(layout)
    args, phases = iteration0_inputs(scenario)
    if block_users:
        split_into_blocks(monkeypatch, len(args[0]), scenario.n_beams, block_users)
    cfg = scenario.config
    h = channel_matrix(*args, cfg, phases)
    assert h.flags.c_contiguous
    np.testing.assert_array_equal(h, channel_matrix_out_of_place(*args, cfg, phases))
    p_tx = cfg.tx_power(scenario.n_beams)
    np.testing.assert_array_equal(nonprecoded_sinr(h, args[3], p_tx),
                                  nonprecoded_sinr_one_pass(h, args[3], p_tx))


@pytest.mark.parametrize("n_beams", [7, 19, 71])
def test_a_whole_block_makes_one_pattern_call_per_slice(n_beams):
    rows = list(channel._pattern_rows(channel._BLOCK_VALUES // n_beams, n_beams))
    assert len(rows) == channel._PATTERN_SLICES


def test_channel_synthesis_holds_one_temporary(scenario19, monkeypatch):
    # beside h and the users' unit vectors (3 floats each): one block's float
    # buffer, numpy's 128 KiB cast buffer and per-block vectors, about 1.8
    # blocks here; a second block's buffer held over would make 2.7, and a
    # float buffer of all users (half of h) 3.1
    args, phases = iteration0_inputs(scenario19)
    n_users = len(args[0])
    split_into_blocks(monkeypatch, n_users, 19, 2503)
    block_bytes = 8 * channel._BLOCK_VALUES
    h, peak = traced_peak(lambda: channel_matrix(*args, scenario19.config, phases))
    assert h.shape == (n_users, 19)
    assert peak < h.nbytes + 3 * 8 * n_users + 2.25 * block_bytes
    sinr, peak = traced_peak(lambda: nonprecoded_sinr(h, args[3], 1.0))
    assert peak < sinr.nbytes + 1.5 * block_bytes


def test_draw_holds_the_channel_and_one_block(scenario19, monkeypatch):
    # the draw's peak is h, the per-user arrays it returns or synthesis uses
    # and the blocks of channel synthesis, as above; the deployment stage
    # peaks lower
    split_into_blocks(monkeypatch, 7702, 19, 2503)
    draw, peak = traced_peak(
        lambda: draw_iteration(scenario19, scenario19.config.user_density, 0))
    per_user = draw.deployment.nbytes + draw.nonprec.nbytes + 3 * 8 * 7702
    assert draw.h.shape == (7702, 19)
    assert peak < draw.h.nbytes + per_user + 2.25 * 8 * channel._BLOCK_VALUES


# ---------------------------------------------------------------------------
# cluster averaging
# ---------------------------------------------------------------------------

def test_equivalent_vector_examples(scenario7):
    """Every cluster's equivalent vector is its members' mean channel vector."""
    draw = draw_iteration(scenario7, scenario7.config.user_density, 0)
    for k in (1, 2):
        state = build_iteration(scenario7, k, draw)
        eqvec = cluster_means(draw.h, state.clusters)
        assert eqvec.shape == (len(state.clusters), scenario7.n_beams)
        for row, v in zip(state.clusters, eqvec):
            members = row[row >= 0]
            if k == 1:      # a single member is its own equivalent vector
                assert np.array_equal(v, draw.h[members[0]])
            assert np.allclose(v, draw.h[members].mean(axis=0), rtol=1e-14, atol=0.0)
