"""Inter-warp stride prefetcher (INTER comparison point; Lee et al. [29]).

Because a warp holds a fixed number of threads, corresponding threads of
consecutive warps are often separated by a constant stride per load PC.  The
detector votes per-PC across warp pairs; once trained, each access prefetches
on behalf of the next warps.  Its weakness — warps of a CTA are scheduled
close together, so the prefetch is often too late — emerges naturally in the
timing model (covered-but-not-timely accesses).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Prefetcher, register
from .stride import ConsensusTracker


@register("inter")
class InterWarpPrefetcher(Prefetcher):
    """Prefetch ``addr + k * warp_stride`` for the next ``degree`` warps."""

    def __init__(self, degree: int = 2, train_threshold: int = 3) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.train_threshold = train_threshold
        self._last_by_pc: Dict[int, Dict[int, int]] = {}  # pc -> {warp: addr}
        self._consensus: Dict[int, ConsensusTracker] = {}
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        history = self._last_by_pc.setdefault(pc, {})
        tracker = self._consensus.get(pc)
        if tracker is None:
            tracker = self._consensus[pc] = ConsensusTracker(
                threshold=self.train_threshold
            )

        # Vote using the nearest lower warp that already executed this PC.
        lower = [w for w in history if w < warp_id]
        if lower:
            nearest = max(lower)
            gap = warp_id - nearest
            delta = base_addr - history[nearest]
            if delta % gap == 0:
                tracker.vote(warp_id, delta // gap)
        history[warp_id] = base_addr

        stride = tracker.trained_stride
        if stride is None:
            return []
        return [
            (base_addr + k * stride, k)
            for k in range(1, self.degree + 1)
            if base_addr + k * stride >= 0
        ]

    def table_accesses(self) -> int:
        return self._accesses
