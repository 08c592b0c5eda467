import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j1, jv

from beamsim import geometry
from beamsim.channel import (
    GAIN_FLOOR_REL,
    _SERIES_MAX_U,
    antenna_gain,
    beam_rf_parameters,
    bessel_taper_gain,
    channel_matrix,
    draw_phases,
    gaussian_gain,
    taper_bracket,
)
from beamsim.engine import build_iteration
from beamsim.errors import ValidationError
from beamsim.scenario import config_from_mapping

from test_scenario import table_config

BOLTZMANN = 1.380649e-23


@pytest.fixture(scope="module")
def cfg():
    return config_from_mapping(table_config())


# ---------------------------------------------------------------------------
# antenna pattern
# ---------------------------------------------------------------------------

def test_boresight_gain_is_peak():
    g = antenna_gain(0.0, math.radians(0.3), 1e5)
    assert g == pytest.approx(1e5, rel=1e-9)


def test_half_power_at_theta_3db():
    # independent check of the tapered-aperture expression at u = 2.07123
    t3 = math.radians(0.3)
    u = 2.07123
    bracket = j1(u) / (2 * u) + 36.0 * jv(3, u) / u**3
    assert bracket**2 == pytest.approx(0.5, rel=1e-2)
    g = antenna_gain(t3, t3, 1.0)
    assert g == pytest.approx(0.5, rel=1e-2)


def test_sidelobes_below_minus_20db():
    t3 = math.radians(0.3)
    g = antenna_gain(3.0 * t3, t3, 1.0)
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
        _SERIES_MAX_U + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]),
        near_nulls,
    ])
    expect = jv_bracket(u)
    err = np.abs(taper_bracket(u) - expect)
    # relative accuracy, or absolute on the normalised bracket where it vanishes
    assert np.all((err <= 1e-11 * np.abs(expect)) | (err <= 1e-13))
    assert np.all(err[np.abs(expect) > 1e-2] <= 1e-11 * np.abs(expect[np.abs(expect) > 1e-2]))
    assert np.max(np.abs(taper_bracket(near_nulls))) < 1e-6
    assert np.array_equal(taper_bracket(-u[:1000]), taper_bracket(u[:1000]))   # even in u


def test_gain_matches_jv_oracle():
    t3 = math.radians(0.3)
    theta = np.linspace(0.0, math.asin(60.0 * math.sin(t3) / 2.07123), 50_001)
    u = 2.07123 * np.sin(theta) / math.sin(t3)
    expect = 3e4 * np.maximum(jv_bracket(u) ** 2, GAIN_FLOOR_REL)
    got = bessel_taper_gain(theta, t3, 3e4)
    assert np.allclose(got, expect, rtol=2e-11, atol=2e-13 * 3e4)


def test_beyond_horizon_clamped_to_floor():
    t3 = math.radians(0.3)
    assert antenna_gain(math.pi / 2, t3, 1.0) == pytest.approx(GAIN_FLOOR_REL)
    assert antenna_gain(2.0, t3, 1.0) == pytest.approx(GAIN_FLOOR_REL)


def test_gaussian_alternative():
    t3 = math.radians(0.3)
    assert gaussian_gain(0.0, t3, 2.0) == pytest.approx(2.0)
    assert gaussian_gain(t3, t3, 2.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValidationError):
        antenna_gain(0.1, t3, 1.0, pattern="cosine")


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
    from dataclasses import replace

    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[0]
    phases = np.zeros(len(scenario7.beams))
    args = (np.array([beam.center_lat]), np.array([beam.center_lon]), np.array([38_000e3]),
            np.array([0]), rf, sat)
    h1 = channel_matrix(*args, cfg, phases)
    h4 = channel_matrix(*args, replace(cfg, noise_temperature=4 * cfg.noise_temperature), phases)
    assert np.allclose(np.abs(h1) / np.abs(h4), 2.0, rtol=1e-12)


def test_phase_modes(cfg, scenario7):
    from dataclasses import replace

    sat, rf = one_beam_setup(cfg, scenario7)
    beam = scenario7.beams[2]
    phases = draw_phases(len(scenario7.beams), np.random.default_rng(5))
    args = (np.array([beam.center_lat]), np.array([beam.center_lon]),
            np.array([38_000e3]), np.array([2]), rf, sat)
    h_ant = channel_matrix(*args, cfg, phases)[0]
    h_beam = channel_matrix(*args, replace(cfg, phase_mode="per-beam"), phases)[0]
    # per-antenna: one phase per column; per-beam: the user's beam phase on all
    base = h_ant * np.exp(1j * phases)           # undo the per-antenna phases
    assert np.allclose(base * np.exp(-1j * phases[2]), h_beam, rtol=1e-12)


# ---------------------------------------------------------------------------
# cluster averaging
# ---------------------------------------------------------------------------

def test_equivalent_vector_examples(scenario7):
    """Every cluster's equivalent vector is its members' mean channel vector."""
    for k in (1, 2):
        state = build_iteration(scenario7, k, scenario7.config.user_density, 0)
        assert state.eqvec.shape == (len(state.clusters), scenario7.n_beams)
        for row, v in zip(state.clusters, state.eqvec):
            members = row[row >= 0]
            if k == 1:      # a single member is its own equivalent vector
                assert np.array_equal(v, state.h[members[0]])
            assert np.allclose(v, state.h[members].mean(axis=0), rtol=1e-14, atol=0.0)
