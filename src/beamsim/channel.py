"""Forward-link channel synthesis.

Each user sees one complex coefficient per transmitting antenna,

    h_bj = sqrt(G_R * G_loss * G_bj) / (4 pi (d / lambda) sqrt(P_Z))
           * exp(-j 2 pi d / lambda) * exp(-j theta),

with the receiver noise power P_Z = k T B folded in so downstream SINRs use
unit noise.  G_bj is the transmit gain of antenna j toward the user, from
the tapered-aperture Bessel pattern (evaluated with numpy alone).  theta is
a random phase drawn once per Monte Carlo iteration, one phase per
transmitting antenna.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError

GAIN_FLOOR_REL = 1e-10  # -100 dB relative to boresight; keeps |h| > 0

# Channel synthesis and the non-precoded SINRs work on blocks of users whose
# (users, N_B) float buffer holds about this many values (128 KiB): 230 users
# at 71 beams, 862 at 19.  The antenna pattern runs on a whole block at once,
# so its temporaries are about a dozen such buffers.
_BLOCK_VALUES = 1 << 14


# ---------------------------------------------------------------------------
# Antenna pattern
# ---------------------------------------------------------------------------

# Below this u the bracket is summed as its power series; above it, it comes
# from its Hankel amplitude-phase form.  The split lies below the first null
# (u = 5.907), so the series, whose largest term at u = 5 is 1.95, still
# carries the bracket (0.072 there) to full relative accuracy.
_SPLIT_U = 5.0
# Coefficients of the bracket in w = (u/2)^2, from the series of J1 and J3:
# (-1)^k / (k!) [1 / (4 (k+1)!) + 36 / (8 (k+3)!)]; k <= 17 leaves < 1e-19 at u = 5.
_BRACKET_SERIES = np.array([
    (-1) ** k / math.factorial(k)
    * (0.25 / math.factorial(k + 1) + 4.5 / math.factorial(k + 3))
    for k in range(18)
])
# Above the split, b(u) = t^(3/2) [alpha(t) cos u + beta(t) sin u] with
# t = _SPLIT_U / u in (0, 1]: the form sqrt(2 / pi u) t [...] with
# sqrt(2 / pi _SPLIT_U) folded into alpha and beta.  With the bracket's
# Bessel-Y counterpart b~ = Y1(u)/2u + 36 Y3(u)/u^3,
# alpha = (b cos u + b~ sin u) / t^(3/2) and beta = (b sin u - b~ cos u) / t^(3/2),
# both smooth on [0, 1].  Degree-16 least-squares fits, lowest power first;
# `fit_taper_tail` in tests/test_channel.py refits them from scipy's jv and yv.
_TAIL_ALPHA = np.array([
    -0.025231325220201606, 0.0018923493915162324, 0.0725479447970645,
    -0.06360363712027055, -0.02145342103331519, 0.0019693398342029507,
    -0.00016093008066334785, -3.6554230093861806e-05, 1.3039639526614274e-05,
    6.549892198550017e-06, -3.362173662614873e-06, -5.651063334902832e-06,
    8.98630583422867e-06, -6.490287479999947e-06, 2.7919537129316904e-06,
    -6.942585872100868e-07, 7.758968322436275e-08,
])
_TAIL_BETA = np.array([
    0.025231325220201627, 0.0018923493914992165, -0.0725479447958599,
    -0.06360363717321534, 0.021453421767846675, 0.001969328692479199,
    0.00016099146710467629, -3.69846021699433e-05, -1.1730839746238396e-05,
    2.30674200465638e-06, 1.2465574986778417e-05, -1.5899520807372727e-05,
    1.119399457979426e-05, -5.319037159788067e-06, 1.7287871623036728e-06,
    -3.541645717715165e-07, 3.491439350361622e-08,
])


def _horner(x, coef):
    """sum_k coef[k] x^k, evaluated in one buffer."""
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def taper_bracket(u):
    """Normalised field bracket J1(u)/2u + 36 J3(u)/u^3; 1 at u = 0.

    Below `_SPLIT_U` the bracket is its power series in (u/2)^2; above, the
    amplitude-phase form t^(3/2) [alpha(t) cos u + beta(t) sin u], t = 5/u.
    Either agrees with J1 and J3 to about 2e-16 absolute.
    """
    u = np.abs(np.asarray(u, dtype=float))
    out = np.empty_like(u)
    small = u < _SPLIT_U
    w = u[small]
    w *= 0.5
    w *= w
    out[small] = _horner(w, _BRACKET_SERIES)
    big = ~small
    ub = u[big]
    t = _SPLIT_U / ub
    tail = _horner(t, _TAIL_ALPHA)
    tail *= np.cos(ub)
    tail += _horner(t, _TAIL_BETA) * np.sin(ub)
    tail *= t
    tail *= np.sqrt(t)
    out[big] = tail
    return out


def bessel_taper_gain(theta, theta_3db, g_max):
    """Tapered-aperture pattern G(theta) = G_max [J1(u)/2u + 36 J3(u)/u^3]^2.

    u = 2.07123 sin(theta)/sin(theta_3db) puts the half-power point at
    theta_3db; the bracket tends to 1/4 + 36/48 = 1 at boresight.
    `theta_3db` and `g_max` broadcast against `theta`: per-antenna arrays
    evaluate a (users, N_B) block of angles at once, each element as a
    scalar call would.
    """
    theta = np.asarray(theta, dtype=float)
    u = 2.07123 * np.sin(theta) / np.sin(theta_3db)
    rel = taper_bracket(u) ** 2
    rel = np.where(theta >= math.pi / 2.0, GAIN_FLOOR_REL, rel)
    return g_max * np.maximum(rel, GAIN_FLOOR_REL)


# ---------------------------------------------------------------------------
# Per-beam RF parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamRf:
    """Satellite-side antenna parameters per beam."""

    boresights: np.ndarray   # (N_B, 3) unit vectors satellite -> beam center
    theta_3db: np.ndarray    # (N_B,) radians
    g_max: np.ndarray        # (N_B,) linear


def beam_rf_parameters(beams, satellite_ecef_km, tx_aperture_efficiency) -> BeamRf:
    """Derive boresight directions, half-power angles, and peak gains.

    theta_3db is the mean satellite-subtended angle of the boundary edge
    midpoints (the crossover points of a hexagonal tiling, putting
    adjacent-beam crossover near -3 dB) and the peak gain follows the
    aperture rule G_max = eta (70 pi / theta_3dB_deg)^2.
    """
    sat = np.asarray(satellite_ecef_km, dtype=float)
    bores = []
    theta3 = []
    gmax = []
    for beam in beams:
        center = geometry.geodetic_to_ecef_km(beam.center_lat, beam.center_lon)
        bore = center - sat
        bore = bore / np.linalg.norm(bore)
        bores.append(bore)
        mids = geometry.edge_midpoints_xy(beam.boundary_xy)
        lat, lon = geometry.unproject_tangent(
            beam.center_lat, beam.center_lon, mids[:, 0], mids[:, 1]
        )
        pts = geometry.geodetic_to_ecef_km(lat, lon) - sat
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        t3 = float(np.mean(np.arccos(np.clip(pts @ bore, -1.0, 1.0))))
        theta3.append(t3)
        gmax.append(tx_aperture_efficiency * (70.0 * math.pi / math.degrees(t3)) ** 2)
    return BeamRf(np.asarray(bores), np.asarray(theta3), np.asarray(gmax))


# ---------------------------------------------------------------------------
# Channel coefficients
# ---------------------------------------------------------------------------

def draw_phases(n_beams, rng):
    """One U[0, 2pi) phase per transmitting antenna, fixed for an iteration."""
    return rng.uniform(0.0, 2.0 * math.pi, size=n_beams)


def _user_blocks(n_users, n_beams):
    """Consecutive slices of `_BLOCK_VALUES // n_beams` users (at least one)."""
    step = max(1, _BLOCK_VALUES // n_beams)
    return (slice(start, start + step) for start in range(0, n_users, step))


def _amplitude(users, d, rf: BeamRf, cfg) -> np.ndarray:
    """|h| of a block of users (unit vectors from the satellite, slant ranges),
    with one pattern call for the block: every antenna's theta_3db and g_max
    broadcast along the rows."""
    theta = np.arccos(np.clip(users @ rf.boresights.T, -1.0, 1.0))   # off-axis angle
    gains = bessel_taper_gain(theta, rf.theta_3db, rf.g_max)
    return (np.sqrt(cfg.rx_gain_linear * cfg.loss_linear * gains) * cfg.wavelength
            / (4.0 * math.pi * d[:, None] * math.sqrt(cfg.noise_power_w)))


def channel_matrix(user_lat, user_lon, slant_m, user_beam_idx, rf: BeamRf,
                   satellite_ecef_km, cfg, phases) -> np.ndarray:
    """(n_users, N_B) complex channel matrix for fixed users.

    Column j is rotated by antenna j's phase `phases[j]`.  `user_beam_idx`
    (each user's serving-beam index) is not read; it stays in the signature
    for the benchmark oracle's positional call.  The users are synthesized
    one `_user_blocks` block at a time, straight into the returned `h`, so
    beside `h` the synthesis holds one block's temporaries whatever the
    number of users.  Every element gets the same operations as in a single
    block.
    """
    if not (cfg.rx_gain_linear > 0 and cfg.loss_linear > 0 and cfg.noise_power_w > 0):
        raise ValidationError("receive gain, losses, and noise power must be positive")
    sat = np.asarray(satellite_ecef_km, dtype=float)
    lam = cfg.wavelength
    d = np.asarray(slant_m, dtype=float)
    users = geometry.geodetic_to_ecef_km(user_lat, user_lon) - sat
    users = users / np.linalg.norm(users, axis=-1, keepdims=True)
    n_beams = rf.boresights.shape[0]
    rotation = np.exp(-1j * np.asarray(phases, dtype=float))
    h = np.empty((len(d), n_beams), dtype=complex)
    for s in _user_blocks(len(d), n_beams):
        np.multiply(_amplitude(users[s], d[s], rf, cfg),
                    np.exp(-1j * (2.0 * math.pi / lam) * d[s])[:, None], out=h[s])
        h[s] *= rotation
    return h
