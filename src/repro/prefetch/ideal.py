"""Ideal prefetcher (§1/§2): every fixed or variable stride, infinite
storage, zero request latency.

Modeled as an infinite transition table: every observed (previous PC,
current PC, address delta) triple is remembered globally; whenever a warp
executes a load whose PC has known outgoing transitions, all of their target
addresses are filled instantly through the L1's magic path (no bandwidth, no
capacity).  A demand access is therefore covered exactly when its transition
was observed at least once before, anywhere — truly random streams remain
uncovered, as they must for any stride-family prefetcher.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .base import Prefetcher, register


@register("ideal")
class IdealPrefetcher(Prefetcher):
    """Oracle upper bound for stride-chain prefetching."""

    uses_magic = True

    def __init__(self, max_fanout: int = 64) -> None:
        self.max_fanout = max_fanout
        # pc -> set of (next_pc, stride) transitions seen anywhere.
        self._outgoing: Dict[int, Set[Tuple[int, int]]] = {}
        self._last: Dict[int, Tuple[int, int]] = {}  # warp -> (pc, addr)
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        last = self._last.get(warp_id)
        if last is not None:
            last_pc, last_addr = last
            self._outgoing.setdefault(last_pc, set()).add(
                (pc, base_addr - last_addr)
            )
        self._last[warp_id] = (pc, base_addr)

        transitions = self._outgoing.get(pc)
        if not transitions:
            return []
        requests: List[Tuple[int, int]] = []
        for _, stride in sorted(transitions)[: self.max_fanout]:
            target = base_addr + stride
            if target >= 0:
                requests.append((target, 1))
        return requests

    def table_accesses(self) -> int:
        return self._accesses
