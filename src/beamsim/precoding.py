"""Regularized channel-inversion precoding and SINR evaluation.

The precoder is W = (H^H H + alpha I)^-1 H^H computed with a linear
solve (no explicit inverse).  Column j of W carries beam j's stream.  All
SINRs assume unit receiver noise, which the channel normalization provides.

`mmse_precoder`, `normalize_power` and `precoded_sinr` take one frame as
2-D arrays or a stack of frames with a leading axis; each frame of a stack
gets the arithmetic its 2-D call would, to the last bit, and a failing
check names the lowest failing frame's value.
"""

from __future__ import annotations

import numpy as np

from .channel import _user_blocks
from .errors import ValidationError


def mmse_precoder(frame_matrix, alpha) -> np.ndarray:
    """Regularized inverse of the (n, n) frame channel matrix, or of each in an (f, n, n) stack.

    `alpha` is one positive scalar: the engine uses 1 / P_TX, which on the
    noise-normalized channel is the paper's noise power over transmit power
    on the physical channel.
    """
    h = np.asarray(frame_matrix, dtype=complex)
    n = h.shape[-1]
    if h.ndim not in (2, 3) or h.shape[-2] != n or not np.all(np.isfinite(h.view(float))):
        raise ValidationError("frame matrix must be finite and square")
    if np.ndim(alpha) != 0 or not alpha > 0:
        raise ValidationError("the regularization factor must be a positive scalar")
    h_herm = np.swapaxes(h.conj(), -1, -2)
    return np.linalg.solve(h_herm @ h + alpha * np.eye(n), h_herm)


def normalize_power(precoder, mode: str, p_tx: float) -> np.ndarray:
    """Scale a precoding matrix, or each frame of an (f, n, n) stack, to ||W||_F^2 = N_B.

    This is sum-power normalization: P_TX enters in `precoded_sinr`, so the
    radiated total is N_B * P_TX.  `mode` (only "sum-power" is accepted) and
    `p_tx` (not read) are kept for the benchmark oracle's positional call.
    A zero, infinite or NaN power raises, naming the first such frame's power.
    """
    if mode != "sum-power":
        raise ValidationError(f"unknown normalization mode {mode!r}")
    w = np.asarray(precoder, dtype=complex)
    power = (np.abs(w) ** 2).sum(axis=(-2, -1))
    bad = ~((0.0 < power) & (power < np.inf))
    if bad.any():
        raise ValidationError(
            f"cannot power-normalize a precoding matrix of power {float(power[bad].flat[0])}")
    return w * np.sqrt(w.shape[-2] / power)[..., None, None]


def _sinr(g, serving_beam):
    """SINRs from received powers g (..., n) and each user's serving beam (...)."""
    sig = np.take_along_axis(g, serving_beam[..., None], axis=-1)[..., 0]
    return sig / (g.sum(axis=-1) - sig + 1.0)


def precoded_sinr(user_vectors, serving_beam, precoder, p_tx) -> np.ndarray:
    """Per-user SINR through the precoder (linear, unit noise).

    gamma_i = P_TX |h_i w_b|^2 / (sum_{j != b} P_TX |h_i w_j|^2 + 1)
    with b the user's serving beam and w_j the j-th precoder column.  For a
    stack, `user_vectors` is (f, m, n), `serving_beam` (f, m) and `precoder`
    (f, n, n): frame i's users see frame i's precoder.
    """
    h = np.atleast_2d(np.asarray(user_vectors, dtype=complex))
    b = np.atleast_1d(np.asarray(serving_beam, dtype=int))
    return _sinr(np.abs(h @ precoder) ** 2 * p_tx, b)


def nonprecoded_sinr(user_vectors, serving_beam, p_tx) -> np.ndarray:
    """Per-user SINR without precoding: every beam interferes at full power.

    Computed one `channel._user_blocks` block of users at a time, so beside
    the result it holds one block's |h|^2, not a float per channel
    coefficient.
    """
    h = np.atleast_2d(np.asarray(user_vectors, dtype=complex))
    b = np.atleast_1d(np.asarray(serving_beam, dtype=int))
    sinr = np.empty(len(h))
    for s in _user_blocks(*h.shape):
        sinr[s] = _sinr(np.abs(h[s]) ** 2 * p_tx, b[s])
    return sinr
