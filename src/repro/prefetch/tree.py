"""Tree spatial prefetcher (Tree comparison point; Ganguly et al. [15]).

The paper adapts this CPU-GPU unified-memory prefetcher to the GPU context:
the global address space is viewed as 64 KB chunks and, once a chunk is
touched, its lines are prefetched into the L1.  We model the tree's
progressive expansion with a per-chunk cursor: every demand access to a
chunk prefetches the next ``burst`` not-yet-requested lines of that chunk.
The aggression (lots of possibly-unused data) is the point — it is what
makes Tree polluting in Figs 16-18.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Prefetcher, register

CHUNK_BYTES = 64 * 1024


@register("tree")
class TreePrefetcher(Prefetcher):
    """Chunk-based spatial prefetcher."""

    def __init__(self, burst: int = 8, line_bytes: int = 128) -> None:
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.burst = burst
        self.line_bytes = line_bytes
        self._cursor: Dict[int, int] = {}  # chunk id -> next line offset
        self._accesses = 0

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        self._accesses += 1
        chunk = base_addr // CHUNK_BYTES
        chunk_base = chunk * CHUNK_BYTES
        cursor = self._cursor.get(
            chunk, (base_addr - chunk_base) // self.line_bytes + 1
        )
        lines_per_chunk = CHUNK_BYTES // self.line_bytes
        requests: List[Tuple[int, int]] = []
        for _ in range(self.burst):
            if cursor >= lines_per_chunk:
                break
            requests.append(
                (chunk_base + cursor * self.line_bytes, len(requests) + 1)
            )
            cursor += 1
        self._cursor[chunk] = cursor
        return requests

    def table_accesses(self) -> int:
        return self._accesses
