import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import geometry
from beamsim.clustering import (
    TIE_RTOL,
    _check_partition,
    channel_features,
    cluster_means,
    max_dist_partition,
)
from beamsim.engine import build_iteration, draw_iteration
from beamsim.errors import ValidationError

from conftest import bundled_scenario


def as_sets(table):
    return [set(row[row >= 0].tolist()) for row in table]


def barycentre_distances(pool):
    """Squared distance of each row of `pool` from the rows' barycentre.

    The rows are first shifted to the first one, which leaves the distances
    as they are but scales their rounding to the pool's spread rather than
    to its offset: two users are then exactly equidistant from their
    barycentre, as MaxDist's tie rule has them, even far from the origin.
    """
    shifted = pool - pool[0]
    centred = shifted - shifted.mean(axis=0)
    return np.einsum("ij,ij->i", centred, centred)


def reference_max_dist(features, cluster_size):
    """MaxDist pass by pass on the features themselves, with the library's tie rule.

    Returns the clusters as rows of a table padded with -1.  Every pass
    copies the remaining pool and recomputes its barycentre and
    all distances directly: O(N d) per pass, slow but plainly right.
    """
    feats = np.asarray(features, dtype=float)
    if feats.ndim == 1:
        feats = feats[:, None]
    remaining = np.arange(len(feats))
    clusters = []
    while remaining.size:
        pool = feats[remaining]
        bary = barycentre_distances(pool)
        top = bary.max()
        ref = int(np.argmax(bary >= top - TIE_RTOL * abs(top)))
        diff = pool - pool[ref]
        dist = np.einsum("ij,ij->i", diff, diff)
        dist[ref] = -1.0
        take = np.argsort(dist, kind="stable")[:cluster_size]
        clusters.append(np.sort(remaining[take]))
        keep = np.ones(remaining.size, dtype=bool)
        keep[take] = False
        remaining = remaining[keep]
    table = np.full((len(clusters), cluster_size), -1)
    for row, cluster in zip(table, clusters):
        row[:len(cluster)] = cluster
    return table


def assert_same_partition(table, expected):
    assert table.shape == expected.shape
    assert table.tolist() == expected.tolist()


def assert_follows_max_dist(features, partition, cluster_size):
    """Replay `partition` pass by pass against MaxDist's rule, with direct distances.

    Each cluster must hold the reference the tie rule picks from the remaining
    pool; its other members must be no farther from that reference than any
    remaining user left out, up to TIE_RTOL of the largest barycentre
    distance; the last cluster is the rest.
    """
    feats = np.asarray(features, dtype=float)
    remaining = np.arange(len(feats))
    for cluster in partition:
        cluster = cluster[cluster >= 0]
        if remaining.size <= cluster_size:
            assert cluster.tolist() == remaining.tolist()
            remaining = remaining[:0]
            continue
        assert len(cluster) == cluster_size
        pool = feats[remaining]
        bary = barycentre_distances(pool)
        top = bary.max()
        ref = remaining[np.argmax(bary >= top - TIE_RTOL * top)]
        assert ref in cluster
        dist = np.einsum("ij,ij->i", pool - feats[ref], pool - feats[ref])
        inside = np.isin(remaining, cluster)
        assert inside.sum() == cluster_size
        assert dist[inside].max() <= dist[~inside].min() + TIE_RTOL * top
        remaining = remaining[~inside]
    assert remaining.size == 0


# ---------------------------------------------------------------------------
# hand-traced examples
# ---------------------------------------------------------------------------

def test_collinear_pairs():
    # hand-execution: barycentre 5, farthest ties at x=0 and x=10 -> lowest id;
    # nearest neighbour of 0 is 1, leaving {9, 10} as the second cluster
    feats = np.array([[0.0], [1.0], [9.0], [10.0]])
    part = max_dist_partition(feats, 2)
    assert as_sets(part) == [{0, 1}, {2, 3}]


def test_unicast_singletons():
    feats = np.random.default_rng(0).normal(size=(5, 2))
    part = max_dist_partition(feats, 1)
    assert part.shape == (5, 1)
    assert (part >= 0).all()
    assert set(part[:, 0].tolist()) == set(range(5))


def test_cluster_size_exceeding_population():
    feats = np.random.default_rng(1).normal(size=(4, 3))
    part = max_dist_partition(feats, 9)
    assert part.shape == (1, 9)
    assert as_sets(part) == [{0, 1, 2, 3}]


def test_tie_break_lowest_id():
    # unit square: all corners equidistant from the barycentre; the reference
    # is the lowest id (0) and its nearest tie (1 vs 2) also breaks low
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    part = max_dist_partition(feats, 2)
    assert as_sets(part) == [{0, 1}, {2, 3}]


def test_two_user_pool_lowest_index_first():
    # two users are equidistant from their barycentre whatever the rounding
    rng = np.random.default_rng(6)
    for _ in range(2000):
        feats = rng.normal(size=(2, int(rng.integers(1, 5))))
        part = max_dist_partition(feats, 1)
        assert part.tolist() == [[0], [1]]


def test_tight_last_pair_lowest_index_first():
    # a far user is taken first; the tight pair left over still ties, though
    # the distance table is centred on the barycentre of all three
    rng = np.random.default_rng(3)
    for _ in range(2000):
        dim = int(rng.integers(1, 5))
        pair = rng.uniform(100.0, 1000.0, size=dim) + rng.normal(scale=1e-4, size=(2, dim))
        feats = np.vstack([np.zeros((1, dim)), pair])
        assert max_dist_partition(feats, 1).tolist() == [[0], [1], [2]]


def test_coincident_pool_lowest_index_first():
    # at pass 53 the 8 remaining users coincide: all tie, and user 10 is the
    # lowest index, though the rounding of the distance table ranks 58 first
    feats = np.random.default_rng(193).integers(-1, 2, size=(61, 3)) * 0.1
    table = max_dist_partition(feats, 1)
    left = table[53:, 0]
    assert (feats[left] == feats[left[0]]).all()
    assert left.tolist() == sorted(left.tolist())
    assert table[53, 0] == 10


def test_regular_polygon_ties_go_to_lowest_index():
    # the vertices are equidistant from their barycentre, up to rounding
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(3, 13))
        angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n) / n
        feats = rng.uniform(-5.0, 5.0, size=2) + rng.uniform(0.1, 100.0) * np.column_stack(
            [np.cos(angles), np.sin(angles)]
        )
        assert max_dist_partition(feats, 1)[0].tolist() == [0]


def test_last_cluster_smaller():
    feats = np.arange(7, dtype=float)[:, None]
    part = max_dist_partition(feats, 3)
    assert part.shape == (math.ceil(7 / 3), 3)
    sizes = sorted(np.count_nonzero(part >= 0, axis=1).tolist())
    assert sizes == [1, 3, 3]
    assert (part[:-1] >= 0).all()  # only the last row is padded


def test_empty_input_rejected():
    with pytest.raises(ValidationError):
        max_dist_partition(np.empty((0, 2)), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    feats = np.random.default_rng(8).normal(size=(9, 4))
    feats[5, 2] = bad
    with pytest.raises(ValidationError, match="beam 17"):
        max_dist_partition(feats, 2, beam_id=17)


def test_gram_overflow_rejected():
    # finite features whose squared distances overflow: an error naming the beam, no warning
    feats = np.random.default_rng(0).normal(size=(20, 3)) * 1e160
    with pytest.raises(ValidationError, match="beam 4: features too large"):
        max_dist_partition(feats, 2, beam_id=4)


# ---------------------------------------------------------------------------
# feature embedding
# ---------------------------------------------------------------------------

def test_channel_feature_examples():
    h = np.array([1 + 0j, 0 + 1j])
    assert np.array_equal(channel_features(h), [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(channel_features(np.zeros(3, dtype=complex)), np.zeros(6))


def test_embedding_is_isometric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        h2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        d_complex = np.linalg.norm(h1 - h2)
        d_features = np.linalg.norm(channel_features(h1) - channel_features(h2))
        assert d_features == pytest.approx(d_complex, rel=1e-12)


# ---------------------------------------------------------------------------
# properties over random instances
# ---------------------------------------------------------------------------

def test_partition_validity_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 5))
        feats = rng.normal(size=(n, dim))
        part = max_dist_partition(feats, k)
        assert part.shape == (math.ceil(n / k), k)
        flat = part[part >= 0]
        assert len(flat) == n and len(np.unique(flat)) == n
        sizes = np.count_nonzero(part >= 0, axis=1)
        assert all(s == k for s in sizes[:-1])
        assert 1 <= sizes[-1] <= k
        assert (part[-1, :sizes[-1]] >= 0).all()  # padding only at the end


def test_clusters_are_compact_on_average():
    rng = np.random.default_rng(4)
    worse = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(12, 60))
        feats = rng.uniform(0.0, 100.0, size=(n, 2))
        part = max_dist_partition(feats, 4)
        d_all = []
        d_intra = []
        for i in range(n):
            for j in range(i + 1, n):
                d_all.append(np.linalg.norm(feats[i] - feats[j]))
        for cluster in part:
            cluster = cluster[cluster >= 0]
            for a in range(len(cluster)):
                for b in range(a + 1, len(cluster)):
                    d_intra.append(np.linalg.norm(feats[cluster[a]] - feats[cluster[b]]))
        if d_intra and np.mean(d_intra) > np.mean(d_all):
            worse += 1
    assert worse == 0


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    k=st.integers(1, 9),
    dim=st.integers(1, 6),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.floats(-10.0, 10.0),
    uniform=st.booleans(),
)
def test_matches_reference_on_random_features(seed, n, k, dim, log_scale, offset, uniform):
    rng = np.random.default_rng(seed)
    draw = rng.uniform(-1.0, 1.0, size=(n, dim)) if uniform else rng.normal(size=(n, dim))
    feats = 10.0**log_scale * (offset + draw)
    assert_same_partition(max_dist_partition(feats, k), reference_max_dist(feats, k))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    k=st.integers(1, 9),
    dim=st.integers(1, 4),
    span=st.integers(0, 4),
    log_scale=st.integers(-3, 3),
)
def test_follows_max_dist_on_tied_grid_features(seed, n, k, dim, span, log_scale):
    # integer-grid features tie exactly, in barycentre and neighbour distances
    rng = np.random.default_rng(seed)
    feats = rng.integers(-span, span + 1, size=(n, dim)) * 10.0**log_scale
    part = max_dist_partition(feats, k)
    assert part.shape == (math.ceil(n / k), k)
    assert_follows_max_dist(feats, part, k)


@pytest.mark.parametrize("layout, sizes", [
    # K = 1, 2, 4, 8 are the acceptance sweep's sizes and K = 3 an odd one;
    # hex7, quick to cluster, also takes K = 16 and 32, many argmins per
    # pass, past the K where a partition would select faster; europe71
    # already takes about 15 s, so it keeps the sweep's sizes only
    pytest.param(layout, sizes, id=layout) for layout, sizes in (
        ("beams_hex7.json", (1, 2, 3, 4, 8, 16, 32)),
        ("beams_hex19.json", (1, 2, 3, 4, 8)),
        ("beams_europe71.json", (1, 2, 4, 8)),
    )
])
def test_matches_reference_on_bundled_layouts(layout, sizes):
    """Both feature spaces of the bundled config's iteration 0, as the engine builds them."""
    scenario = bundled_scenario(layout)
    assert scenario.config.clustering_similarity == "channel"
    draw = draw_iteration(scenario, scenario.config.user_density, 0)
    state = build_iteration(scenario, 8, draw)
    dep = draw.deployment
    for bi, beam in enumerate(scenario.beams):
        sel = np.flatnonzero(dep.beam_idx == bi)
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon,
                                        dep.lat[sel], dep.lon[sel])
        chan = channel_features(draw.h[sel])
        for feats in (np.column_stack([x, y]), chan):
            for k in sizes:
                assert_same_partition(max_dist_partition(feats, k), reference_max_dist(feats, k))
        # the engine's table rows of the beam, as global user ids
        expected = reference_max_dist(chan, 8)
        assert state.n_clusters[bi] == len(expected)
        rows = state.clusters[state.first_cluster[bi]:][:len(expected)]
        assert_same_partition(rows, np.where(expected >= 0, sel[expected], -1))


def test_determinism():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(23, 4))
    a = max_dist_partition(feats, 3)
    b = max_dist_partition(feats, 3)
    assert np.array_equal(a, b)


def test_barycentres():
    xy = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [5.0, -1.0]])
    rows = np.array([[0, 1], [2, 3], [4, -1]])
    bary = cluster_means(xy, rows)
    assert np.allclose(bary, [[1.0, 0.0], [1.0, 2.0], [5.0, -1.0]])
    # the same additions and division as a per-cluster .mean, to the last bit
    rng = np.random.default_rng(6)
    for k in (1, 2, 3, 4, 8):
        for values in (rng.normal(size=(37, 2)), rng.normal(size=(37, 5)) * 1j + 0.3):
            order = rng.permutation(len(values))
            rows = np.full((-(-len(values) // k), k), -1)
            rows.flat[:len(values)] = order
            expected = np.vstack([values[r[r >= 0]].mean(axis=0) for r in rows])
            assert cluster_means(values, rows).tobytes() == expected.tobytes()


def test_partition_validation_catches_overlap():
    _check_partition(np.array([[0, 1], [3, 2]]), 4, beam_id=1)
    with pytest.raises(ValidationError, match="beam 1"):
        _check_partition(np.array([[0, 1], [1, 2]]), 4, beam_id=1)
