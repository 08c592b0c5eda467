"""TDMA cluster schedulers: random selection and geographical sectoring.

Both schedulers draw uniformly from a per-beam pool of not-yet-served
cluster indices and re-initialize the pool when it runs out, so beams with
fewer clusters keep transmitting while the larger beams finish their sweep.
The geographical scheduler runs one such sweep per scheduling sector
(beam-center disc first, then the ring/wedge sectors in index order) using
only the clusters whose sector label, from their barycentre, is that sector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import BEAM_CENTER_SECTOR, SectorGrid

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


def random_schedule(n_clusters, seed=0) -> ScheduleSequence:
    """Uniform cluster selection without replacement until each beam's sweep ends.

    The sequence runs max_b N_K frames.  A beam's pool shrinks by the drawn
    index while the frame counter is below its cluster count and is
    re-initialized afterwards, so every cluster of the largest beam is
    served exactly once.
    """
    n_k = np.asarray(n_clusters)
    bound = int(n_k.max())
    selection = np.empty((bound, len(n_k)), dtype=int)
    _sweep(np.random.default_rng(seed), np.tile(np.arange(bound), (len(n_k), 1)), n_k,
           selection, n_k)
    return ScheduleSequence(selection, np.full(bound, NO_SECTOR),
                            np.zeros(selection.shape, dtype=bool))


def gsa_schedule(sector, n_clusters, grid: SectorGrid, seed=0) -> ScheduleSequence:
    """Geographical scheduling: serve each sector across all beams before moving on.

    `sector` holds each cluster's sector label, beam b's n_clusters[b] after
    those of the beams before it.  Sector q runs max_b |members_b(q)| frames
    so every cluster of the sector is served at least once in every beam.
    Within a sector, pools shrink by the drawn cluster while more than one
    remains and re-initialize otherwise (which may re-serve a cluster on the
    sector's last frame).  A beam with no cluster in the sector borrows
    uniform draws from its nearest populated sector (ring-adjacency first,
    then wedge) and is flagged as borrowed.
    """
    n_clusters = np.asarray(n_clusters)
    if len(sector) != n_clusters.sum():
        raise ValidationError(f"{len(sector)} sector labels for {n_clusters.sum()} clusters")
    # by_sector[b][q]: beam b's clusters in sector q, ascending
    by_sector = [[np.flatnonzero(labels == q) for q in range(grid.n_sectors)]
                 for labels in np.split(sector, np.cumsum(n_clusters)[:-1])]
    rng = np.random.default_rng(seed)
    order = [BEAM_CENTER_SECTOR] + [q for q in range(grid.n_sectors) if q != BEAM_CENTER_SECTOR]
    n_q = [max(len(s[q]) for s in by_sector) for q in order]
    served = np.repeat(order, n_q)
    selection = np.empty((len(served), len(n_clusters)), dtype=int)
    borrowed = np.empty(selection.shape, dtype=bool)
    bounds = np.cumsum(n_q)[:-1]
    for q, sel_q, borrowed_q in zip(order, np.split(selection, bounds), np.split(borrowed, bounds)):
        if not len(sel_q):
            continue
        donors = [q if len(s[q]) else next(
            q2 for q2 in grid.neighbor_order(q) if len(s[q2])
        ) for s in by_sector]
        lent = np.array(donors) != q
        borrowed_q[:] = lent
        members = [s[donor] for s, donor in zip(by_sector, donors)]
        full = np.array([len(m) for m in members])
        initial = np.zeros((len(members), full.max()), dtype=int)   # row b's first full[b]
        for row, m in zip(initial, members):
            row[:len(m)] = m
        # borrowed pools are sampled with replacement
        _sweep(rng, initial, full, sel_q, np.where(lent, 0, np.inf))
    return ScheduleSequence(selection, served, borrowed)


def _sweep(rng, initial, full, frames, limit):
    """Fill `frames` (n_frames, N_B) with uniform draws from per-beam pools.

    Beam b's pool starts as the first full[b] indices of row b of `initial`.
    After each frame n (counted from 1) it shrinks by the drawn index while
    more than one index remains and n < limit[b], and is re-initialized
    otherwise.
    """
    beams = np.arange(len(full))
    pools, size = initial.copy(), full.copy()
    for n, sel in enumerate(frames, start=1):
        j = rng.integers(0, size)
        sel[:] = pools[beams, j]
        shrink = (size > 1) & (n < limit)
        rows = beams[shrink]
        pools[rows, j[shrink]] = pools[rows, size[shrink] - 1]
        pools[~shrink] = initial[~shrink]
        size = np.where(shrink, size - 1, full)
