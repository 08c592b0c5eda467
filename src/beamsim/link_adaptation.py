"""ModCod mapping and metric aggregation.

A cluster decodes at the spectral efficiency its weakest member supports:
the minimum member SINR selects the highest ModCod threshold it still
clears (0 below the table = outage).  Aggregation pools rates over frames,
beams, and Monte Carlo iterations into the average spectral efficiency,
the GSA-minus-random gain, and the precoding-loss frame fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .scenario import ModCodTable


def cluster_rates(member_sinrs_linear, sizes, modcod: ModCodTable) -> np.ndarray:
    """Spectral efficiency (bit/s/Hz) of each scheduled cluster.

    `member_sinrs_linear` holds the members' SINRs cluster after cluster and
    `sizes` the member count of each cluster; a cluster gets the efficiency
    of its worst member.  A NaN SINR raises instead of selecting a row.
    """
    g = np.asarray(member_sinrs_linear, dtype=float)
    sizes = np.asarray(sizes, dtype=int)
    if sizes.size == 0 or np.any(sizes < 1) or sizes.sum() != g.size:
        raise ValidationError("cluster rates need at least one member SINR per cluster")
    if np.isnan(g).any():
        raise ValidationError("cluster rates need SINRs that are not NaN")
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    worst = np.minimum.reduceat(g, offsets)
    return modcod.efficiency(10.0 * np.log10(np.maximum(worst, 1e-300)))


@dataclass
class PolicyAggregate:
    """Pooled and per-iteration metrics for one scheduling policy."""

    eta_bar: float
    loss_frame_fraction: float
    n_frames: int
    n_iterations: int
    per_iteration_eta: np.ndarray
    per_iteration_loss_fraction: np.ndarray
    per_iteration_frames: np.ndarray


@dataclass
class MetricsReport:
    """Metrics of one (cluster size, density) cell, possibly for both policies."""

    cluster_size: int
    density: float
    policies: dict = field(default_factory=dict)     # policy -> PolicyAggregate

    @property
    def gain(self) -> float | None:
        """GSA-minus-random gain in average spectral efficiency."""
        if "gsa" in self.policies and "random" in self.policies:
            return self.policies["gsa"].eta_bar - self.policies["random"].eta_bar
        return None


def aggregate_policy(per_iteration_rates, per_iteration_loss_flags) -> PolicyAggregate:
    """Pool per-iteration frame/beam rate arrays into one policy's metrics.

    `per_iteration_rates[i]` is the (n_frames_i, N_B) rate array of iteration
    i and `per_iteration_loss_flags[i]` the matching per-frame loss flags.
    """
    if not per_iteration_rates:
        raise ValidationError("aggregation needs at least one iteration")
    etas = np.array([float(np.mean(r)) for r in per_iteration_rates])
    frames = np.array([len(r) for r in per_iteration_rates])
    losses = np.array([float(np.mean(f)) if len(f) else 0.0 for f in per_iteration_loss_flags])
    total_rate = sum(float(np.sum(r)) for r in per_iteration_rates)
    total_cells = sum(r.size for r in per_iteration_rates)
    total_loss = sum(int(np.sum(f)) for f in per_iteration_loss_flags)
    total_frames = int(frames.sum())
    return PolicyAggregate(
        eta_bar=total_rate / total_cells,
        loss_frame_fraction=total_loss / total_frames,
        n_frames=total_frames,
        n_iterations=len(per_iteration_rates),
        per_iteration_eta=etas,
        per_iteration_loss_fraction=losses,
        per_iteration_frames=frames,
    )


def aggregate(cluster_size, density, rates_by_policy, loss_by_policy) -> MetricsReport:
    """Build the cell-level metrics report from per-policy iteration outputs."""
    report = MetricsReport(int(cluster_size), float(density))
    for policy, rates in rates_by_policy.items():
        report.policies[policy] = aggregate_policy(rates, loss_by_policy[policy])
    return report
