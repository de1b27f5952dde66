"""Bingo spatial prefetcher (Bakhshalipour et al., HPCA'19 — §6.1).

A CPU spatial prefetcher adapted to the GPU L1: it learns the footprint of
cache lines touched within a region during its residency, keyed first by
the long event (trigger PC + address) and falling back to the short event
(trigger PC + offset), then prefetches the learned footprint when a new
region is first touched.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Prefetcher, register


@register("bingo")
class BingoPrefetcher(Prefetcher):
    """Footprint prefetching over fixed-size spatial regions."""

    def __init__(self, region_bytes: int = 2048, line_bytes: int = 128,
                 max_regions: int = 256) -> None:
        if region_bytes % line_bytes != 0:
            raise ValueError("region_bytes must be a multiple of line_bytes")
        self.region_bytes = region_bytes
        self.line_bytes = line_bytes
        self.max_regions = max_regions
        # active generations: region -> (trigger pc, trigger offset, footprint)
        self._active: Dict[int, Tuple[int, int, int]] = {}
        # history: long event (pc, region) and short event (pc, offset)
        self._long: Dict[Tuple[int, int], int] = {}
        self._short: Dict[Tuple[int, int], int] = {}
        self._accesses = 0

    def _region_of(self, addr: int) -> int:
        return addr // self.region_bytes

    def _offset_of(self, addr: int) -> int:
        return (addr % self.region_bytes) // self.line_bytes

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        # Region and line offset floor the address, so the trigger's line
        # and its first thread's address name the same footprint bit.
        region = self._region_of(base_addr)
        offset = self._offset_of(base_addr)

        if region in self._active:
            trigger_pc, trigger_offset, footprint = self._active[region]
            self._active[region] = (
                trigger_pc, trigger_offset, footprint | (1 << offset)
            )
            return []

        # New region generation: retire the oldest if at capacity.
        if len(self._active) >= self.max_regions:
            old_region, (trigger_pc, trigger_offset, footprint) = next(
                iter(self._active.items())
            )
            del self._active[old_region]
            self._long[(trigger_pc, old_region)] = footprint
            self._short[(trigger_pc, trigger_offset)] = footprint
        self._active[region] = (pc, offset, 1 << offset)

        # Predict from history: long event first, then short event.
        footprint = self._long.get((pc, region))
        if footprint is None:
            footprint = self._short.get((pc, offset))
        if footprint is None:
            return []

        base = region * self.region_bytes
        lines_per_region = self.region_bytes // self.line_bytes
        return [
            (base + i * self.line_bytes, 1)
            for i in range(lines_per_region)
            if footprint >> i & 1 and i != offset
        ]

    def table_accesses(self) -> int:
        return self._accesses
