"""Regularized channel-inversion precoding and SINR evaluation.

The precoder is W = (H^H H + diag(alpha))^-1 H^H computed with a linear
solve (no explicit inverse).  Column j of W carries beam j's stream.  All
SINRs assume unit receiver noise, which the channel normalization provides.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def mmse_precoder(frame_matrix, alpha) -> np.ndarray:
    """Regularized inverse of the frame channel matrix.

    `alpha` is a scalar or per-beam vector of positive regularization factors
    (noise power over transmit power in the nominal configuration).
    """
    h = np.asarray(frame_matrix, dtype=complex)
    n = h.shape[0]
    if h.shape != (n, n) or not np.all(np.isfinite(h.view(float))):
        raise ValidationError("frame matrix must be finite and square")
    a = np.broadcast_to(np.asarray(alpha, dtype=float), (n,))
    if np.any(a <= 0):
        raise ValidationError("regularization factors must be positive")
    gram = h.conj().T @ h + np.diag(a)
    return np.linalg.solve(gram, h.conj().T)


def normalize_power(precoder, mode: str, p_tx: float) -> np.ndarray:
    """Apply the transmit-power convention to a precoding matrix.

    sum-power scales W so the radiated total equals N_B * P_TX; per-antenna
    scales W uniformly until the hottest antenna (row) radiates exactly P_TX;
    none returns W unchanged.  A zero, infinite or NaN power raises.
    """
    w = np.asarray(precoder, dtype=complex)
    if mode == "none":
        return w
    if mode == "sum-power":
        fro2 = float(np.sum(np.abs(w) ** 2))
        if not 0.0 < fro2 < np.inf:
            raise ValidationError(f"cannot power-normalize a precoding matrix of power {fro2}")
        return w * np.sqrt(w.shape[0] / fro2)
    if mode == "per-antenna":
        row_norm2 = np.sum(np.abs(w) ** 2, axis=1)
        peak = float(np.max(row_norm2))
        if not 0.0 < peak < np.inf:
            raise ValidationError(f"cannot power-normalize a precoding matrix of power {peak}")
        return w / np.sqrt(peak)
    raise ValidationError(f"unknown normalization mode {mode!r}")


def precoded_sinr(user_vectors, serving_beam, precoder, p_tx) -> np.ndarray:
    """Per-user SINR through the precoder (linear, unit noise).

    gamma_i = P_TX |h_i w_b|^2 / (sum_{j != b} P_TX |h_i w_j|^2 + 1)
    with b the user's serving beam and w_j the j-th precoder column.
    """
    h = np.atleast_2d(np.asarray(user_vectors, dtype=complex))
    b = np.atleast_1d(np.asarray(serving_beam, dtype=int))
    g = np.abs(h @ precoder) ** 2 * p_tx
    sig = g[np.arange(len(h)), b]
    interference = g.sum(axis=1) - sig
    return sig / (interference + 1.0)


def nonprecoded_sinr(user_vectors, serving_beam, p_tx) -> np.ndarray:
    """Per-user SINR without precoding: every beam interferes at full power."""
    h = np.atleast_2d(np.asarray(user_vectors, dtype=complex))
    b = np.atleast_1d(np.asarray(serving_beam, dtype=int))
    g = np.abs(h) ** 2 * p_tx
    sig = g[np.arange(len(h)), b]
    interference = g.sum(axis=1) - sig
    return sig / (interference + 1.0)
