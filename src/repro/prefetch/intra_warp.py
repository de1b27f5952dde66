"""Intra-warp stride prefetcher (INTRA comparison point; Lee et al. [29]).

Each (warp, load PC) pair trains a classic stride detector; once the stride
repeats, the next loop iteration's address is prefetched.  Effective only in
the presence of deep loops — exactly the limitation §2 attributes to it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Prefetcher, register
from .stride import StrideTracker


@register("intra")
class IntraWarpPrefetcher(Prefetcher):
    """Prefetch ``addr + k * stride`` for the same warp's next iterations."""

    def __init__(self, degree: int = 2) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self._trackers: Dict[Tuple[int, int], StrideTracker] = {}
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        key = (warp_id, pc)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = StrideTracker()
        stride = tracker.update(base_addr)
        if stride is None:
            return []
        return [
            (base_addr + k * stride, k)
            for k in range(1, self.degree + 1)
            if base_addr + k * stride >= 0
        ]

    def table_accesses(self) -> int:
        return self._accesses
