"""Fixed-size user clustering (MaxDist).

Each pass picks the not-yet-clustered user farthest from the barycentre of
the remaining users as reference, then groups it with its K-1 nearest
remaining neighbours.  The similarity space is either the 2-D tangent-plane
position or the real embedding of the complex channel vector.

Reference picks break ties toward the lowest user index.  Barycentre
distances within the relative tolerance `TIE_RTOL` of the largest count as
tied, so the pick does not depend on rounding (two remaining users, for
example, are always equidistant from their barycentre).  The tolerance is
never below `TIE_RTOL` of the largest |x|^2 in the Gram table below, the
scale of its rounding, so the users of a pool that all coincide tie too.
Neighbours are ranked on the distances the Gram table yields, lowest index
first among equal values; features whose neighbour distances tie exactly
may round apart there, so those ties need not break toward the lowest
index.

Cost: every distance a pass needs comes from the Gram matrix G = X X^T of
the remaining users' features X, centred on their barycentre, and from
g = G 1_R, its row sums over the remaining users R, which each pass updates
by subtracting the rows it took.  A pass sorts nothing, whatever the
feature dimension d: it takes the K-1 nearest with one argmin each, O(K n)
arithmetic.  A partition would select them in O(n), but its call and the
gathers around it cost more than K-1 argmins up to K = 12-16 on europe71's
beams, and the bundled config and workloads use K <= 8.  On a beam's few
hundred users the calls, not the arithmetic, set the cost, so a pass keeps
its scalars as Python floats.  G takes 8 n^2 bytes for n users; it is built
for the whole beam and rebuilt on the remaining users each time half of
them have been taken, which keeps the rounding of the distances small and
costs O(n^2 d) per beam in all: the floor, about 0.14 s of the 0.24 s
MaxDist takes on a europe71 K = 2 draw (one core).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Reference picks within this relative distance of the farthest user tie.
TIE_RTOL = 1e-9


def channel_features(channel_vectors) -> np.ndarray:
    """Real feature embedding of complex channel vectors: [Re, Im] concatenated.

    Euclidean distance in the embedding equals the complex Euclidean distance.
    """
    h = np.asarray(channel_vectors)
    return np.hstack([h.real, h.imag])


def max_dist_partition(features, cluster_size: int, beam_id: int = 0) -> np.ndarray:
    """Partition users into ceil(N/K) clusters with the MaxDist procedure.

    Returns the (ceil(N/K), K) table of local user indices, a row per cluster
    in the order MaxDist forms them; only the last row is padded with -1.
    """
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

    table = np.full((-(-n // k), k), -1)  # filled row by row, in pass order
    ids = np.arange(n)                  # remaining users, ascending: lowest-index ties
    while ids.size > k:
        # distance table of the remaining users, centred on their barycentre;
        # rebuilt once half of them are taken, so that |x|^2 stays near the
        # distances it yields and the subtractions below lose little precision
        with np.errstate(over="ignore", invalid="ignore"):
            x = feats[ids] - feats[ids].mean(axis=0)
            gram = x @ x.T
            row_sum = gram.sum(axis=1)  # g = G 1_R over the remaining users R
            total = float(row_sum.sum())  # |s|^2 = 1_R^T G 1_R, s the sum over R
        if not np.isfinite(total):
            raise ValidationError(f"beam {beam_id}: features too large for the distance table")
        far = gram.diagonal().copy()    # |x_i|^2, -inf once taken
        floor = TIE_RTOL * float(far.max())  # least tie tolerance: the table's rounding scale
        near = far / 2                  # |x_i|^2 / 2, +inf once taken (read only if k > 1)
        bary = np.empty_like(far)
        dist = np.empty_like(far)
        picked = []                     # local indices of this table's passes, row by row
        m = ids.size
        while m > k and 2 * m > ids.size:
            # |x_i - s/m|^2 = |x_i|^2 - 2 g_i / m + |s|^2 / m^2; the last term
            # is common to all users and enters only the relative tie tolerance
            np.multiply(row_sum, -2.0 / m, bary)
            bary += far
            ref = int(bary.argmax())
            if m == 2:
                # two users always tie, however far from them the table is centred
                ref = int((far > -np.inf).argmax())
            elif ref:
                # a lower index ties if the largest value below it is within tolerance
                top = bary.item(ref)
                cut = top - max(TIE_RTOL * abs(top + total / (m * m)), floor)
                if bary.item(bary[:ref].argmax()) >= cut:
                    ref = int((bary[:ref] >= cut).argmax())
            take = [ref]
            if k > 1:
                # (|x_i - x_ref|^2 - |x_ref|^2) / 2 in one subtraction: halving
                # is exact, so it ranks as |x_i - x_ref|^2 does; each argmin
                # takes the nearest left, lowest index first, as a stable sort
                np.subtract(near, gram[ref], dist)
                mate = ref
                for _ in range(k - 1):
                    dist[mate] = near[mate] = np.inf
                    mate = int(dist.argmin())
                    take.append(mate)
                near[mate] = np.inf     # the last mate
                take.sort()
            picked += take
            taken = gram[take[0]]       # rows added in ascending index order
            for j in take[1:]:
                taken = taken + gram[j]
            s_taken = s_row = 0.0
            for j in take:
                s_taken += taken.item(j)
                s_row += row_sum.item(j)
                far[j] = -np.inf
            total += s_taken - 2.0 * s_row
            row_sum -= taken
            m -= k
        start = n - ids.size            # users taken before this table
        table.flat[start:start + len(picked)] = ids[picked]
        ids = ids[np.isfinite(far)]
    table[-1, :ids.size] = ids
    _check_partition(table, n, beam_id)
    return table


def _check_partition(table, n_users: int, beam_id: int):
    """Raise unless the -1-padded `table` holds each of the n_users users exactly once."""
    if not np.array_equal(np.sort(table[table >= 0]), np.arange(n_users)):
        raise ValidationError(f"beam {beam_id}: clusters do not partition the {n_users} users")


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
