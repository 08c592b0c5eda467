"""TDMA cluster schedulers: random selection and geographical sectoring.

Both schedulers draw uniformly from a per-beam pool of not-yet-served
cluster indices and re-initialize the pool when it runs out, so beams with
fewer clusters keep transmitting while the larger beams finish their sweep.
The geographical scheduler runs one such sweep per scheduling sector
(beam-center disc first, then the ring/wedge sectors in index order) using
only the clusters whose barycentre lies in that sector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .geometry import BEAM_CENTER_SECTOR, Sectorisation

NO_SECTOR = -1  # sector label used by the random scheduler


@dataclass
class ScheduleFrame:
    frame: int                      # 1-based frame index within the sequence
    sector: int                     # NO_SECTOR for random frames
    selection: np.ndarray           # (N_B,) cluster index chosen per beam
    borrowed: np.ndarray | None = None  # beams that had to borrow from another sector


@dataclass
class ScheduleSequence:
    policy: str
    frames: list = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def selections(self) -> np.ndarray:
        """(n_frames, N_B) matrix of scheduled cluster indices."""
        return np.vstack([f.selection for f in self.frames])


def random_schedule(partitions, n_frame=None, seed=0) -> ScheduleSequence:
    """Uniform cluster selection without replacement until each beam's sweep ends.

    A beam's pool shrinks by the drawn index while the frame counter is below
    its cluster count and is re-initialized afterwards, so a sequence of
    max_b N_K frames serves every cluster of the largest beam exactly once.
    """
    n_k = [p.n_clusters for p in partitions]
    bound = max(n_k)
    if n_frame is None:
        n_frame = bound
    if n_frame < bound:
        raise ValidationError(
            f"n_frame={n_frame} is below the required max cluster count {bound}"
        )
    rng = np.random.default_rng(seed)
    pools = [list(range(k)) for k in n_k]
    seq = ScheduleSequence("random")
    for n in range(1, n_frame + 1):
        sel = np.empty(len(partitions), dtype=int)
        for b, pool in enumerate(pools):
            j = int(rng.integers(len(pool)))
            sel[b] = pool[j]
            if n < n_k[b]:
                pool[j] = pool[-1]
                pool.pop()
            else:
                pools[b] = list(range(n_k[b]))
        seq.frames.append(ScheduleFrame(n, NO_SECTOR, sel))
    return seq


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
    seq = ScheduleSequence("gsa")
    frame_no = 0
    order = [BEAM_CENTER_SECTOR] + [q for q in range(grid.n_sectors) if q != BEAM_CENTER_SECTOR]
    for q in order:
        n_q = max(len(s.members[q]) for s in sectorisations)
        if n_q == 0:
            continue
        initial = []
        borrowed_beam = []
        for s in sectorisations:
            own = s.members[q]
            if len(own):
                initial.append(list(own))
                borrowed_beam.append(False)
            else:
                donor = next(
                    q2 for q2 in grid.neighbor_order(q) if len(s.members[q2])
                )
                initial.append(list(s.members[donor]))
                borrowed_beam.append(True)
        pools = [list(p) for p in initial]
        for _ in range(n_q):
            frame_no += 1
            sel = np.empty(len(partitions), dtype=int)
            for b, pool in enumerate(pools):
                j = int(rng.integers(len(pool)))
                sel[b] = pool[j]
                if borrowed_beam[b]:
                    continue  # borrowed pools are sampled with replacement
                if len(pool) > 1:
                    pool[j] = pool[-1]
                    pool.pop()
                else:
                    pools[b] = list(initial[b])
            seq.frames.append(
                ScheduleFrame(frame_no, q, sel, np.asarray(borrowed_beam, dtype=bool))
            )
    return seq
