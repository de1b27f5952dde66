"""Domino temporal prefetcher (Bakhshalipour et al., HPCA'18 — §6.1).

A CPU temporal prefetcher adapted to the GPU L1: it logs the miss-address
stream in a history buffer and indexes it by the last one and last two
addresses; on a match it replays the next addresses that followed last
time.  The paper's §6.1 argues CPU temporal prefetching transfers poorly
to GPUs — thousands of interleaved warps shred the temporal stream — and
this implementation lets the claim be measured
(`benchmarks/test_cpu_prefetchers.py`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.gpusim.coalescer import line_of

from .base import Prefetcher, register


@register("domino")
class DominoPrefetcher(Prefetcher):
    """Temporal next-address prefetching over the global access stream."""

    def __init__(self, history_size: int = 4096, degree: int = 4,
                 line_bytes: int = 128) -> None:
        if history_size < 2 or degree < 1:
            raise ValueError("history_size >= 2 and degree >= 1 required")
        self.history_size = history_size
        self.degree = degree
        self.line_bytes = line_bytes
        self._history: List[int] = []
        # Domino's two index tables: last address, and (previous, last) pair.
        self._index1: Dict[int, int] = {}
        self._index2: Dict[Tuple[int, int], int] = {}
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        addr = line_of(base_addr, self.line_bytes)

        # Predict: prefer the two-address (higher-confidence) index.
        position = None
        if len(self._history) >= 1:
            pair = (self._history[-1], addr)
            position = self._index2.get(pair)
        if position is None:
            position = self._index1.get(addr)

        requests: List[Tuple[int, int]] = []
        if position is not None:
            successors = self._history[position + 1: position + 1 + self.degree]
            requests = [
                (successor, i + 1)
                for i, successor in enumerate(successors)
                if successor >= 0
            ]

        # Record: index the position this address appears at.
        if self._history:
            self._index2[(self._history[-1], addr)] = len(self._history)
        self._index1[addr] = len(self._history)
        self._history.append(addr)
        if len(self._history) > self.history_size:
            # drop the oldest half and rebuild the indexes (amortized)
            keep = self.history_size // 2
            self._history = self._history[-keep:]
            self._index1 = {a: i for i, a in enumerate(self._history)}
            self._index2 = {
                (self._history[i - 1], a): i
                for i, a in enumerate(self._history)
                if i >= 1
            }
        return requests

    def table_accesses(self) -> int:
        return self._accesses
