"""Fixed-size user clustering (MaxDist).

Each pass picks the not-yet-clustered user farthest from the barycentre of
the remaining users as reference, then groups it with its K-1 nearest
remaining neighbours.  The similarity space is either the 2-D tangent-plane
position or the real embedding of the complex channel vector.

Ties break toward the lowest user index, so partitions are deterministic.
Barycentre distances within the relative tolerance `TIE_RTOL` of the
largest count as tied, so the reference pick does not depend on rounding
(two remaining users, for example, are always equidistant from their
barycentre).  Neighbour distances tie only when equal.

Cost: every distance a pass needs comes from the Gram matrix G = X X^T of
the remaining users' features X, centred on their barycentre, and from
g = G 1_R, its row sums over the remaining users R, which each pass updates
by subtracting the rows it took.  A pass costs O(n) arithmetic and one
sort of n distances, whatever the feature dimension d.  G takes 8 n^2 bytes
for n users; it is built for the whole beam and rebuilt on the remaining
users each time half of them have been taken, which keeps the rounding of
the distances small and costs O(n^2 d) per beam in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Reference picks within this relative distance of the farthest user tie.
TIE_RTOL = 1e-9


@dataclass
class ClusterPartition:
    """Partition of one beam's users into clusters of (at most) K members."""

    beam_id: int
    clusters: list          # list of np.ndarray of local user indices
    n_users: int

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def validate(self):
        seen = np.concatenate(self.clusters) if self.clusters else np.array([], dtype=int)
        if len(seen) != self.n_users or len(np.unique(seen)) != self.n_users:
            raise ValidationError(
                f"beam {self.beam_id}: clusters do not partition the {self.n_users} users"
            )
        return self


def channel_features(channel_vectors) -> np.ndarray:
    """Real feature embedding of complex channel vectors: [Re, Im] concatenated.

    Euclidean distance in the embedding equals the complex Euclidean distance.
    """
    h = np.asarray(channel_vectors)
    single = h.ndim == 1
    if single:
        h = h[None, :]
    feats = np.hstack([h.real, h.imag])
    return feats[0] if single else feats


def max_dist_partition(features, cluster_size: int, beam_id: int = 0) -> ClusterPartition:
    """Partition users into ceil(N/K) clusters with the MaxDist procedure."""
    feats = np.asarray(features, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    n = len(feats)
    if n == 0:
        raise ValidationError(f"beam {beam_id}: cannot cluster an empty user set")
    k = int(cluster_size)
    if k < 1:
        raise ValidationError("cluster size must be >= 1")

    clusters = []
    ids = np.arange(n)                  # remaining users, ascending: lowest-index ties
    while ids.size > k:
        # distance table of the remaining users, centred on their barycentre;
        # rebuilt once half of them are taken, so that |x|^2 stays near the
        # distances it yields and the subtractions below lose little precision
        x = feats[ids] - feats[ids].mean(axis=0)
        gram = x @ x.T
        far = gram.diagonal().copy()    # |x_i|^2, -inf once taken
        near = far.copy()               # |x_i|^2, +inf once taken
        row_sum = gram.sum(axis=1)      # g = G 1_R over the remaining users R
        total = row_sum.sum()           # |s|^2 = 1_R^T G 1_R, s the sum over R
        m = ids.size
        while m > k and 2 * m > ids.size:
            # |x_i - s/m|^2 = |x_i|^2 - 2 g_i / m + |s|^2 / m^2; the last term
            # is common to all users and enters only the relative tie tolerance
            bary = far - (2.0 / m) * row_sum
            top = bary.max()
            ref = int(np.argmax(bary >= top - TIE_RTOL * abs(top + total / (m * m))))
            # |x_i - x_ref|^2 less the common |x_ref|^2
            dist = near - 2.0 * gram[ref]
            dist[ref] = -np.inf         # reference always first
            take = np.sort(np.argsort(dist, kind="stable")[:k])
            clusters.append(ids[take])
            taken = gram[take].sum(axis=0)
            total += taken[take].sum() - 2.0 * row_sum[take].sum()
            row_sum -= taken
            far[take] = -np.inf
            near[take] = np.inf
            m -= k
        ids = ids[np.isfinite(far)]
    clusters.append(ids)

    assert len(clusters) == math.ceil(n / k)
    return ClusterPartition(beam_id, clusters, n).validate()


def cluster_barycentres(xy, partition: ClusterPartition) -> np.ndarray:
    """Position centroid of every cluster; (N_K, 2) in tangent-plane km."""
    pts = np.asarray(xy, dtype=float)
    return np.vstack([pts[c].mean(axis=0) for c in partition.clusters])
