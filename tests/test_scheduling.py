import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim.errors import ValidationError
from beamsim.geometry import BEAM_CENTER_SECTOR, SectorGrid
from beamsim.scheduling import NO_SECTOR, gsa_schedule, random_schedule

TAU = 2.0 * math.pi


def grid_3x3():
    return SectorGrid((0.2, 0.6, 0.8, 1.0), (math.pi / 2, math.pi, TAU))


def sectorisation_from_counts(counts):
    """Sector labels of a beam whose sector q holds `counts[q]` consecutively numbered clusters."""
    return np.repeat(np.arange(len(counts)), counts)


def members(labels, q):
    """The clusters of a beam labelled with sector q, ascending."""
    return np.flatnonzero(labels == q)


def gsa(labels, grid, seed):
    """`gsa_schedule` on one sector-label array per beam."""
    return gsa_schedule(np.concatenate(labels), [len(lab) for lab in labels], grid, seed)


# ---------------------------------------------------------------------------
# random scheduler
# ---------------------------------------------------------------------------

def test_single_cluster_always_selected():
    # the 5-cluster beam sets 5 frames; the 1-cluster beams re-serve their cluster
    seq = random_schedule([1, 1, 5], seed=0)
    assert seq.n_frames == 5
    assert (seq.selection[:, :2] == 0).all()


def test_full_permutation_when_frames_equal_clusters():
    for seed in range(10):
        seq = random_schedule([3, 3], seed=seed)
        assert seq.n_frames == 3
        sel = seq.selection
        for b in range(2):
            assert sorted(sel[:, b].tolist()) == [0, 1, 2]


def test_unequal_beams_reinitialize():
    # hand-traced: beam 0 (2 clusters) serves {0,1} in frames 1-2, then draws
    # from the re-initialized full pool; beam 1 (4 clusters) is a permutation
    for seed in range(20):
        seq = random_schedule([2, 4], seed=seed)
        sel = seq.selection
        assert sorted(sel[:2, 0].tolist()) == [0, 1]
        assert set(sel[2:, 0].tolist()) <= {0, 1}
        assert sorted(sel[:, 1].tolist()) == [0, 1, 2, 3]


def test_max_beam_served_exactly_once():
    rng = np.random.default_rng(21)
    for _ in range(25):
        counts = rng.integers(1, 9, size=4)
        seq = random_schedule(counts, seed=int(rng.integers(1 << 30)))
        assert seq.n_frames == int(counts.max())
        sel = seq.selection
        b_max = int(np.argmax(counts))
        served = sel[:, b_max].tolist()
        assert sorted(served) == list(range(int(counts.max())))


def test_no_repetition_within_epoch():
    rng = np.random.default_rng(22)
    counts = [5, 3, 7]
    seq = random_schedule(counts, seed=3)
    sel = seq.selection
    for b, c in enumerate(counts):
        epoch = sel[:c, b].tolist()
        assert len(set(epoch)) == c


def test_random_schedule_deterministic():
    a = random_schedule([4, 2, 6], seed=99)
    b = random_schedule([4, 2, 6], seed=99)
    assert a.n_frames == 6
    assert np.array_equal(a.selection, b.selection)
    assert (a.sector == NO_SECTOR).all()


# ---------------------------------------------------------------------------
# geographical scheduler
# ---------------------------------------------------------------------------

def test_one_cluster_per_sector_is_deterministic():
    grid = grid_3x3()
    labels = sectorisation_from_counts([1] * grid.n_sectors)
    seq = gsa([labels] * 3, grid, seed=5)
    assert seq.n_frames == grid.n_sectors
    # frame q serves exactly the unique sector-q cluster in every beam
    for sel, sector, borrowed in zip(seq.selection, seq.sector, seq.borrowed):
        expected = members(labels, sector)[0]
        assert (sel == expected).all()
        assert not borrowed.any()
    assert seq.sector.tolist() == [BEAM_CENTER_SECTOR] + list(
        range(1, grid.n_sectors)
    )


def test_sector_frame_count_and_reserving():
    # hand-traced: beam A holds 3 clusters in sector 1, beams B and C hold 1;
    # sector 1 runs 3 frames and B, C re-serve their single cluster throughout
    grid = grid_3x3()
    counts_a = [1] + [3] + [1] * (grid.n_sectors - 2)
    counts_b = [1] * grid.n_sectors
    sect_a = sectorisation_from_counts(counts_a)
    sect_b = sectorisation_from_counts(counts_b)
    sect_c = sectorisation_from_counts(counts_b)
    seq = gsa([sect_a, sect_b, sect_c], grid, seed=8)
    sel_q1 = seq.selection[seq.sector == 1]
    assert len(sel_q1) == 3
    assert sorted(sel_q1[:, 0]) == members(sect_a, 1).tolist()
    for sel in sel_q1:
        assert sel[1] == members(sect_b, 1)[0]
        assert sel[2] == members(sect_c, 1)[0]
    assert seq.n_frames == sum(max(a, b) for a, b in zip(counts_a, counts_b))


def test_all_clusters_in_one_sector_degenerates_to_random():
    grid = grid_3x3()
    counts = [0] * grid.n_sectors
    counts[4] = 5
    seq = gsa([sectorisation_from_counts(counts)] * 2, grid, seed=2)
    assert seq.n_frames == 5
    assert (seq.sector == 4).all()
    sel = seq.selection
    for b in range(2):
        assert sorted(sel[:, b].tolist()) == list(range(5))  # full sweep, no repeats


def test_sector_homogeneity_every_frame():
    grid = grid_3x3()
    rng = np.random.default_rng(23)
    for trial in range(10):
        sects = [sectorisation_from_counts(rng.integers(1, 4, size=grid.n_sectors))
                 for _ in range(4)]
        seq = gsa(sects, grid, seed=trial)
        for sel, sector, borrowed in zip(seq.selection, seq.sector, seq.borrowed):
            for b in range(4):
                assert sel[b] in members(sects[b], sector)
                assert not borrowed[b]
        expected = sum(
            max(len(members(s, q)) for s in sects) for q in range(grid.n_sectors)
        )
        assert seq.n_frames == expected


def test_every_cluster_served_at_least_once():
    grid = grid_3x3()
    rng = np.random.default_rng(24)
    sects = []
    for b in range(3):
        counts = rng.integers(0, 4, size=grid.n_sectors)
        if counts.sum() == 0:
            counts[0] = 1
        sects.append(sectorisation_from_counts(counts))
    seq = gsa(sects, grid, seed=7)
    for b, labels in enumerate(sects):
        own = set(seq.selection[~seq.borrowed[:, b], b].tolist())
        assert own == set(range(len(labels)))


def test_empty_sector_borrows_from_nearest():
    grid = grid_3x3()
    # beam 0 has nothing in sector 5 (ring 2, wedge 2); its nearest populated
    # sector by (ring, wedge) adjacency is 4 -> draws come from there, flagged
    counts_empty = [1, 1, 1, 1, 2, 0, 1, 1, 1, 1]
    counts_full = [1, 1, 1, 1, 1, 2, 1, 1, 1, 1]
    s0 = sectorisation_from_counts(counts_empty)
    s1 = sectorisation_from_counts(counts_full)
    seq = gsa([s0, s1], grid, seed=9)
    in_q5 = seq.sector == 5
    assert in_q5.sum() == 2  # beam 1 has two clusters there
    for sel, borrowed in zip(seq.selection[in_q5], seq.borrowed[in_q5]):
        assert borrowed[0] and not borrowed[1]
        assert sel[0] in members(s0, 4)
        assert sel[1] in members(s1, 5)


def test_gsa_deterministic_and_validated():
    grid = grid_3x3()
    s0 = sectorisation_from_counts([1] * grid.n_sectors)
    a = gsa_schedule(s0, [len(s0)], grid, seed=31)
    b = gsa_schedule(s0, [len(s0)], grid, seed=31)
    assert np.array_equal(a.selection, b.selection)
    with pytest.raises(ValidationError):
        gsa_schedule(s0, [len(s0) + 1], grid, seed=0)
    with pytest.raises(ValidationError):
        gsa_schedule(s0, [], grid, seed=0)


# ---------------------------------------------------------------------------
# coverage properties on random instances
# ---------------------------------------------------------------------------

N_SECTORS_3X3 = grid_3x3().n_sectors


@st.composite
def beams_by_sector(draw):
    """Per-beam cluster counts in each sector of `grid_3x3` (every beam non-empty)."""
    n_beams = draw(st.integers(1, 5))
    counts = st.lists(st.integers(0, 4), min_size=N_SECTORS_3X3, max_size=N_SECTORS_3X3)
    return draw(st.lists(counts.filter(any), min_size=n_beams, max_size=n_beams))


@settings(max_examples=200, deadline=None)
@given(counts=beams_by_sector(), seed=st.integers(0, 2**32 - 1))
def test_random_schedule_coverage(counts, seed):
    n_k = [sum(c) for c in counts]
    seq = random_schedule(n_k, seed=seed)
    assert seq.n_frames == max(n_k)
    assert seq.selection.shape == (seq.n_frames, len(n_k))
    for b, n in enumerate(n_k):
        # every cluster of the beam within its first N_K_b frames
        assert sorted(seq.selection[:n, b].tolist()) == list(range(n))
        assert ((seq.selection[:, b] >= 0) & (seq.selection[:, b] < n)).all()
    assert (seq.sector == NO_SECTOR).all()
    assert not seq.borrowed.any()


@settings(max_examples=200, deadline=None)
@given(counts=beams_by_sector(), seed=st.integers(0, 2**32 - 1))
def test_gsa_schedule_coverage(counts, seed):
    grid = grid_3x3()
    rng = np.random.default_rng(seed)
    sects = []
    for c in counts:
        # each sector's clusters drawn at random from the beam's cluster ids
        labels = np.empty(sum(c), dtype=int)
        labels[rng.permutation(sum(c))] = sectorisation_from_counts(c)
        sects.append(labels)
    seq = gsa(sects, grid, seed=seed)

    # sector q runs max_b |members_b(q)| frames, beam-centre disc first
    order = [BEAM_CENTER_SECTOR] + [q for q in range(grid.n_sectors) if q != BEAM_CENTER_SECTOR]
    n_q = [max(c[q] for c in counts) for q in order]
    assert np.array_equal(seq.sector, np.repeat(order, n_q))
    for b, s in enumerate(sects):
        empty = np.array([len(members(s, q)) == 0 for q in range(grid.n_sectors)])
        # a beam borrows exactly in the frames of a sector where it has no cluster
        assert np.array_equal(seq.borrowed[:, b], empty[seq.sector])
        for sel, q, borrowed in zip(seq.selection[:, b], seq.sector, seq.borrowed[:, b]):
            donor = q if not borrowed else next(
                d for d in grid.neighbor_order(q) if len(members(s, d)))
            assert sel in members(s, donor)
        # every cluster is served in its own sector's frames
        own = seq.selection[~seq.borrowed[:, b], b]
        assert set(own.tolist()) == set(range(len(s)))


# ---------------------------------------------------------------------------
# the array schedulers against one scalar draw per beam and frame
# ---------------------------------------------------------------------------

def loop_random_selection(n_k, seed):
    """`random_schedule`'s rule with one scalar draw per beam and frame."""
    rng = np.random.default_rng(seed)
    pools = [list(range(k)) for k in n_k]
    selection = np.empty((max(n_k), len(n_k)), dtype=int)
    for n, sel in enumerate(selection, start=1):
        for b, pool in enumerate(pools):
            j = int(rng.integers(len(pool)))
            sel[b] = pool[j]
            if n < n_k[b]:
                pool[j] = pool[-1]
                pool.pop()
            else:
                pools[b] = list(range(n_k[b]))
    return selection


def loop_gsa_selection(sects, grid, seed):
    """`gsa_schedule`'s rule with one scalar draw per beam and frame."""
    rng = np.random.default_rng(seed)
    order = [BEAM_CENTER_SECTOR] + [q for q in range(grid.n_sectors) if q != BEAM_CENTER_SECTOR]
    rows = []
    for q in order:
        donors = [q if len(members(s, q)) else next(
            d for d in grid.neighbor_order(q) if len(members(s, d))) for s in sects]
        initial = [list(members(s, d)) for s, d in zip(sects, donors)]
        pools = [list(p) for p in initial]
        for _ in range(max(len(members(s, q)) for s in sects)):
            row = []
            for b, pool in enumerate(pools):
                j = int(rng.integers(len(pool)))
                row.append(pool[j])
                if donors[b] != q:
                    continue  # borrowed pools are sampled with replacement
                if len(pool) > 1:
                    pool[j] = pool[-1]
                    pool.pop()
                else:
                    pools[b] = list(initial[b])
            rows.append(row)
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(counts=beams_by_sector(), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_schedules_match_scalar_draws(counts, extra, seed):
    grid = grid_3x3()
    rng = np.random.default_rng(seed)
    sects = []
    for c in counts:
        labels = np.empty(sum(c), dtype=int)
        labels[rng.permutation(sum(c))] = sectorisation_from_counts(c)
        sects.append(labels)
    # a further beam, `extra` clusters above the others, runs them past their sweeps
    n_k = [sum(c) for c in counts]
    n_k.append(max(n_k) + extra)
    assert np.array_equal(random_schedule(n_k, seed).selection,
                          loop_random_selection(n_k, seed))
    assert np.array_equal(gsa(sects, grid, seed).selection,
                          loop_gsa_selection(sects, grid, seed))


# Cluster counts per beam, from one beam to seven, beams of one cluster among them
DIGEST_COUNTS = [[1], [3, 3], [2, 4], [1, 1, 5], [7, 2, 11, 1, 5], [4, 9, 6, 1, 3, 8, 2]]


def schedule_digest(seq):
    h = hashlib.sha256()
    for a in (seq.selection, seq.sector, seq.borrowed):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed, random_digest, gsa_digest", [
    (0, "a399e4b7d16892da", "679e73a2d0c7d133"),
    (1, "6658dcf3645835cd", "9a1357ca0da58be0"),
    (29, "471a1d6aa8dbbdf7", "5aca19d9edf3bd61"),
])
def test_schedules_keep_their_recorded_draws(seed, random_digest, gsa_digest):
    # selection, sector and borrowed flags, digested over the grid of counts
    # with random sector labels (beams borrowing among them), as the
    # schedulers drew them before their pool loops became one
    grid = grid_3x3()
    random_all, gsa_all = hashlib.sha256(), hashlib.sha256()
    for i, counts in enumerate(DIGEST_COUNTS):
        random_all.update(schedule_digest(random_schedule(counts, seed)).encode())
        labels = np.random.default_rng((seed, i)).integers(0, grid.n_sectors, sum(counts))
        gsa_all.update(schedule_digest(gsa_schedule(labels, counts, grid, seed)).encode())
    assert random_all.hexdigest()[:16] == random_digest
    assert gsa_all.hexdigest()[:16] == gsa_digest
