"""Shared, banked L2 cache.

All SMs send their L1 misses here.  Banks are next-free-time resources (bank
conflicts queue), the tag store is plain LRU, and misses are forwarded to
DRAM.  In-flight misses merge so that two SMs missing on the same line cost
one DRAM access.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.obs.events import BusLike, L2AccessEvent, NULL_BUS

from .cache import SetAssocCache
from .config import CacheConfig
from .dram import DRAM
from .faults import FaultInjector

_BANK_SERVICE_CYCLES = 4


class L2Cache:
    """The GPU's shared last-level cache in front of DRAM."""

    def __init__(
        self, config: CacheConfig, banks: int, dram: DRAM,
        obs: Optional[BusLike] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if banks < 1:
            raise ValueError("need at least one L2 bank")
        self._obs = obs if obs is not None else NULL_BUS
        self._faults = faults  # optional chaos hook (l2.latency_spike)
        self.config = config
        self.dram = dram
        self._store = SetAssocCache(config)
        # Geometry and latency read once: ``access`` runs on every L1 miss.
        self._line_bytes = config.line_bytes
        self._banks = banks
        self._latency = config.latency
        self._bank_next_free = [0] * banks
        self._bank_priority_next_free = [0] * banks
        self._inflight: Dict[int, int] = {}  # line -> fill time
        # Min-heap of (fill_time, line) mirroring ``_inflight`` so expired
        # entries drop in O(log n) per expiry instead of a full scan per
        # access; superseded heap entries are skipped lazily.
        self._inflight_heap: List[Tuple[int, int]] = []
        self.hits = 0
        self.misses = 0

    def access(
        self, line_addr: int, now: int, is_write: bool = False,
        priority: bool = True,
    ) -> int:
        """Service a request arriving at time ``now``; returns the time the
        data is ready to travel back to the requesting L1.  Demand requests
        (``priority=True``) schedule ahead of best-effort prefetches."""
        bank = line_addr // self._line_bytes % self._banks
        latency = self._latency
        bank_next_free = self._bank_next_free
        # Chaos l2.latency_spike: extra service latency on the *returned*
        # ready time only — bank horizons are untouched, so the shared
        # scheduling state (and its monotonicity invariants) is unaffected.
        spike = 0
        if self._faults is not None:
            spike = self._faults.delay("l2.latency_spike", now)
        if priority:
            priority_next_free = self._bank_priority_next_free
            start = priority_next_free[bank]
            if now > start:
                start = now
            priority_next_free[bank] = start + _BANK_SERVICE_CYCLES
        else:
            start = bank_next_free[bank]
            if now > start:
                start = now
        if start + _BANK_SERVICE_CYCLES > bank_next_free[bank]:
            bank_next_free[bank] = start + _BANK_SERVICE_CYCLES

        # Drop completed in-flight entries lazily via the fill heap; an
        # address re-inserted with a later fill time leaves a superseded
        # heap entry behind, which the dict check skips.
        inflight = self._inflight
        heap = self._inflight_heap
        while heap and heap[0][0] <= now:
            _, addr = heapq.heappop(heap)
            t = inflight.get(addr)
            if t is not None and t <= now:
                del inflight[addr]

        if self._store.touch(line_addr, start) is not None:
            self.hits += 1
            if self._obs.enabled:
                self._obs.emit(
                    L2AccessEvent(
                        cycle=now, sm_id=-1, line_addr=line_addr, hit=True
                    )
                )
            return start + latency + spike

        pending = inflight.get(line_addr)
        if pending is not None:
            if self._obs.enabled:
                self._obs.emit(L2AccessEvent(
                    cycle=now, sm_id=-1, line_addr=line_addr, hit=True
                ))
            # Merge with an in-flight miss.  A demand (priority) request
            # promotes a starved best-effort prefetch: the memory controller
            # re-prioritizes the transfer, so it completes no later than an
            # access starting with this one's bank slot (``start >= now``).
            self.hits += 1
            merged = start + latency
            if pending > merged:
                merged = pending
                if priority and merged > start + latency + _BANK_SERVICE_CYCLES:
                    merged = start + latency + _BANK_SERVICE_CYCLES
            return merged + spike

        self.misses += 1
        if self._obs.enabled:
            self._obs.emit(
                L2AccessEvent(cycle=now, sm_id=-1, line_addr=line_addr, hit=False)
            )
        fill_time = self.dram.access(
            line_addr, start + _BANK_SERVICE_CYCLES, is_write, priority
        )
        self._store.insert(line_addr, fill_time)
        inflight[line_addr] = fill_time
        heapq.heappush(heap, (fill_time, line_addr))
        return fill_time + latency + spike

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
