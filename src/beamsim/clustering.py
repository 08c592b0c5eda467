"""Fixed-size user clustering (MaxDist).

Each pass picks the not-yet-clustered user farthest from the barycentre of
the remaining users as reference, then groups it with its K-1 nearest
remaining neighbours.  The similarity space is either the 2-D tangent-plane
position or the real embedding of the complex channel vector.

Reference picks break ties toward the lowest user index.  Barycentre
distances within the relative tolerance `TIE_RTOL` of the largest count as
tied, so the pick does not depend on rounding (two remaining users, for
example, are always equidistant from their barycentre).  The exception is a
remaining pool whose users all coincide: every barycentre distance is then
rounding, and the rounding picks.  Neighbours are ranked on the distances
the Gram table below yields, lowest index first among equal values; features
whose neighbour distances tie exactly may round apart there, so those ties
need not break toward the lowest index.

Cost: every distance a pass needs comes from the Gram matrix G = X X^T of
the remaining users' features X, centred on their barycentre, and from
g = G 1_R, its row sums over the remaining users R, which each pass updates
by subtracting the rows it took.  A pass costs O(n) arithmetic in a fixed
handful of numpy calls and sorts nothing, whatever the feature dimension d:
K = 1 needs no neighbour distances, K = 2 takes the nearest with one
argmin, and larger K select the K nearest with one partition.  G takes
8 n^2 bytes for n users; it is built for the whole beam and rebuilt on the
remaining users each time half of them have been taken, which keeps the
rounding of the distances small and costs O(n^2 d) per beam in all.
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
    if not np.isfinite(feats).all():
        raise ValidationError(f"beam {beam_id}: cannot cluster features that are NaN or infinite")
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
        bary = np.empty_like(far)
        dist = np.empty_like(far)
        m = ids.size
        while m > k and 2 * m > ids.size:
            # |x_i - s/m|^2 = |x_i|^2 - 2 g_i / m + |s|^2 / m^2; the last term
            # is common to all users and enters only the relative tie tolerance
            np.multiply(row_sum, -2.0 / m, out=bary)
            bary += far
            top = bary.max()
            ref = int(np.argmax(bary >= top - TIE_RTOL * abs(top + total / (m * m))))
            if k == 1:
                clusters.append(ids[ref:ref + 1])
                total += gram[ref, ref] - 2.0 * row_sum[ref]
                row_sum -= gram[ref]
                far[ref] = -np.inf
                m -= 1
                continue
            # |x_i - x_ref|^2 less the common |x_ref|^2
            np.multiply(gram[ref], -2.0, out=dist)
            dist += near
            if k == 2:
                dist[ref] = np.inf
                mate = int(np.argmin(dist))
                clusters.append(ids[[min(ref, mate), max(ref, mate)]])
                taken = gram[ref] + gram[mate]
                total += (taken[ref] + taken[mate]) - 2.0 * (row_sum[ref] + row_sum[mate])
                row_sum -= taken
                far[ref] = far[mate] = -np.inf
                near[ref] = near[mate] = np.inf
                m -= 2
                continue
            # the k smallest, ties to the lowest index: a stable sort's first k
            dist[ref] = -np.inf         # reference always in
            kth = np.partition(dist, k - 1)[k - 1]
            sel = dist < kth
            sel[np.flatnonzero(dist == kth)[:k - np.count_nonzero(sel)]] = True
            take = np.flatnonzero(sel)
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


def cluster_means(values, rows) -> np.ndarray:
    """Mean of `values` over each cluster: a row of `rows`, padded with -1.

    Members are added slot by slot in row order, then divided by the size:
    the operations of `values[members].mean(axis=0)`, to the last bit.
    """
    sizes = np.count_nonzero(rows >= 0, axis=1)
    total = values[rows[:, 0]]
    for slot in range(1, rows.shape[1]):
        has = sizes > slot
        total[has] += values[rows[has, slot]]
    return total / sizes[:, None]
