"""ModCod mapping and metric aggregation.

A cluster decodes at the spectral efficiency its weakest member supports:
the minimum member SINR selects the highest ModCod threshold it still
clears (0 below the table = outage).  Each iteration is reduced to a few
numbers, which aggregation pools over Monte Carlo iterations into the
average spectral efficiency, the GSA-minus-random gain, and the
precoding-loss frame fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .scenario import ModCodTable


def to_db(x):
    """10 log10(x) of a power ratio, with x floored at 1e-300 so 0 stays finite."""
    return 10.0 * np.log10(np.maximum(x, 1e-300))


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
    return modcod.efficiency(to_db(worst))


class IterationMetrics(NamedTuple):
    """One policy's iteration reduced to what aggregation and `iterations.csv` read."""

    n_frames: int
    rate_sum: float         # sum of the rates over the n_slots (frame, beam) slots
    n_slots: int
    n_lost: int             # frames in which precoding lowered a member's SINR

    @property
    def eta(self) -> float:             # mean rate over the slots
        return self.rate_sum / self.n_slots

    @property
    def loss_fraction(self) -> float:   # share of lost frames, 0.0 for no frames
        return self.n_lost / self.n_frames if self.n_frames else 0.0


def reduce_iteration(rates, loss_flags) -> IterationMetrics:
    """An iteration's (n_frames, N_B) rates and per-frame loss flags, reduced."""
    return IterationMetrics(len(rates), float(np.sum(rates)), rates.size, int(np.sum(loss_flags)))


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


def aggregate_policy(per_iteration) -> PolicyAggregate:
    """Pool one policy's `IterationMetrics`, in iteration order, weighting every
    (frame, beam) slot alike."""
    if not per_iteration:
        raise ValidationError("aggregation needs at least one iteration")
    frames, rate_sum, slots, lost = zip(*per_iteration)
    return PolicyAggregate(
        eta_bar=sum(rate_sum) / sum(slots),
        loss_frame_fraction=sum(lost) / sum(frames),
        n_frames=sum(frames),
        n_iterations=len(per_iteration),
        per_iteration_eta=np.array([m.eta for m in per_iteration]),
        per_iteration_loss_fraction=np.array([m.loss_fraction for m in per_iteration]),
        per_iteration_frames=np.array(frames),
    )


def aggregate(cluster_size, density, metrics_by_policy) -> MetricsReport:
    """The cell's metrics report from each policy's list of `IterationMetrics`."""
    return MetricsReport(int(cluster_size), float(density),
                         {p: aggregate_policy(m) for p, m in metrics_by_policy.items()})
