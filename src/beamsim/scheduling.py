"""TDMA cluster schedulers: random selection and geographical sectoring.

Both schedulers draw uniformly from a per-beam pool of not-yet-served
cluster indices and re-initialize the pool when it runs out, so beams with
fewer clusters keep transmitting while the larger beams finish their sweep.
The geographical scheduler runs one such sweep per scheduling sector
(beam-center disc first, then the ring/wedge sectors in index order) using
only the clusters whose barycentre lies in that sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import BEAM_CENTER_SECTOR, Sectorisation

NO_SECTOR = -1  # sector label used by the random scheduler


@dataclass
class ScheduleSequence:
    """A frame schedule as arrays: frame f serves cluster `selection[f, b]` of beam b."""

    selection: np.ndarray     # (n_frames, N_B) cluster index per beam
    sector: np.ndarray        # (n_frames,) sector served; NO_SECTOR for random frames
    borrowed: np.ndarray      # (n_frames, N_B) bool: the beam drew from another sector

    @property
    def n_frames(self) -> int:
        return len(self.sector)


def random_schedule(partitions, n_frame=None, seed=0) -> ScheduleSequence:
    """Uniform cluster selection without replacement until each beam's sweep ends.

    A beam's pool shrinks by the drawn index while the frame counter is below
    its cluster count and is re-initialized afterwards, so a sequence of
    max_b N_K frames serves every cluster of the largest beam exactly once.
    """
    n_k = np.array([p.n_clusters for p in partitions])
    bound = int(n_k.max())
    if n_frame is None:
        n_frame = bound
    if n_frame < bound:
        raise ValidationError(
            f"n_frame={n_frame} is below the required max cluster count {bound}"
        )
    rng = np.random.default_rng(seed)
    beams = np.arange(len(n_k))
    pools = np.tile(np.arange(bound), (len(n_k), 1))   # beam b's pool: row b's first size[b]
    size = n_k.copy()
    selection = np.empty((n_frame, len(n_k)), dtype=int)
    for n, sel in enumerate(selection, start=1):
        j = rng.integers(0, size)
        sel[:] = pools[beams, j]
        shrink = n < n_k
        rows = beams[shrink]
        pools[rows, j[shrink]] = pools[rows, size[shrink] - 1]
        pools[~shrink] = np.arange(bound)
        size = np.where(shrink, size - 1, n_k)
    return ScheduleSequence(selection, np.full(n_frame, NO_SECTOR),
                            np.zeros(selection.shape, dtype=bool))


def gsa_schedule(partitions, sectorisations: list[Sectorisation], seed=0) -> ScheduleSequence:
    """Geographical scheduling: serve each sector across all beams before moving on.

    Sector q runs max_b |members_b(q)| frames so every cluster of the sector
    is served at least once in every beam.  Within a sector, pools shrink by
    the drawn cluster while more than one remains and re-initialize otherwise
    (which may re-serve a cluster on the sector's last frame).  A beam with no
    cluster in the sector borrows uniform draws from its nearest populated
    sector (ring-adjacency first, then wedge) and is flagged as borrowed.
    """
    if len(partitions) != len(sectorisations):
        raise ValidationError("one sectorisation per beam is required")
    grid = sectorisations[0].grid
    for p, s in zip(partitions, sectorisations):
        total = sum(len(m) for m in s.members)
        if total != p.n_clusters:
            raise ValidationError(
                f"beam {p.beam_id}: sectorisation covers {total} clusters, "
                f"expected {p.n_clusters}"
            )
    rng = np.random.default_rng(seed)
    beams = np.arange(len(partitions))
    order = [BEAM_CENTER_SECTOR] + [q for q in range(grid.n_sectors) if q != BEAM_CENTER_SECTOR]
    n_q = [max(len(s.members[q]) for s in sectorisations) for q in order]
    sector = np.repeat(order, n_q)
    selection = np.empty((len(sector), len(partitions)), dtype=int)
    borrowed = np.empty(selection.shape, dtype=bool)
    bounds = np.cumsum(n_q)[:-1]
    for q, sel_q, borrowed_q in zip(order, np.split(selection, bounds), np.split(borrowed, bounds)):
        if not len(sel_q):
            continue
        donors = [q if len(s.members[q]) else next(
            q2 for q2 in grid.neighbor_order(q) if len(s.members[q2])
        ) for s in sectorisations]
        lent = np.array(donors) != q
        borrowed_q[:] = lent
        members = [s.members[donor] for s, donor in zip(sectorisations, donors)]
        full = np.array([len(m) for m in members])
        initial = np.zeros((len(members), full.max()), dtype=int)   # row b's first full[b]
        for row, m in zip(initial, members):
            row[:len(m)] = m
        pools, size = initial.copy(), full.copy()
        for sel in sel_q:
            j = rng.integers(0, size)
            sel[:] = pools[beams, j]
            # borrowed pools are sampled with replacement
            shrink = ~lent & (size > 1)
            refill = ~lent & (size == 1)
            rows = beams[shrink]
            pools[rows, j[shrink]] = pools[rows, size[shrink] - 1]
            size[shrink] -= 1
            pools[refill] = initial[refill]
            size[refill] = full[refill]
    return ScheduleSequence(selection, sector, borrowed)
