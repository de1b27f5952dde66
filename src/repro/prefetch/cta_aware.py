"""CTA-aware prefetcher (CTA comparison point; Koo et al. [25]).

Warps *within* a CTA share a stride but run too close in time for prefetching
to help; the stride *between* corresponding warps of different CTAs is also
fixed and offers timeliness.  The detector learns, per load PC, the address
delta between matching warp slots of consecutive CTAs (using each CTA's base
— the first observed address per (pc, cta)), then prefetches the same access
for the next CTAs.  The detection period (two full CTAs must be observed)
is what limits its coverage in the paper (Fig 16, fifth observation).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Prefetcher, register
from .stride import ConsensusTracker


@register("cta")
class CTAAwarePrefetcher(Prefetcher):
    """Prefetch ``addr + k * cta_stride`` for the next ``degree`` CTAs."""

    def __init__(
        self, degree: int = 1, train_threshold: int = 2, cta_step: int = 1
    ) -> None:
        if degree < 1 or cta_step < 1:
            raise ValueError("degree and cta_step must be >= 1")
        self.degree = degree
        self.cta_step = cta_step  # id distance to the next CTA on this SM
        # pc -> {cta: base addr} for the CTAs this SM has executed.
        self._base: Dict[int, Dict[int, int]] = {}
        self._consensus: Dict[int, ConsensusTracker] = {}
        self.train_threshold = train_threshold
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        history = self._base.setdefault(pc, {})
        if cta_id not in history:
            history[cta_id] = base_addr
            tracker = self._consensus.get(pc)
            if tracker is None:
                tracker = self._consensus[pc] = ConsensusTracker(
                    threshold=self.train_threshold
                )
            # CTAs are distributed over SMs, so the previous CTA this SM saw
            # may be several ids back; normalize the delta by the id gap.
            lower = [c for c in history if c < cta_id]
            if lower:
                nearest = max(lower)
                gap = cta_id - nearest
                delta = base_addr - history[nearest]
                if delta % gap == 0:
                    tracker.vote(cta_id, delta // gap)

        tracker = self._consensus.get(pc)
        if tracker is None or tracker.trained_stride is None:
            return []
        stride = tracker.trained_stride * self.cta_step
        return [
            (base_addr + k * stride, k)
            for k in range(1, self.degree + 1)
            if base_addr + k * stride >= 0
        ]

    def table_accesses(self) -> int:
        return self._accesses
