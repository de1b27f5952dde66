"""Snake's Head table (§3.1).

Indexed by warp id, each entry holds the warp's last executed load PC and the
address it requested.  On every load the entry is updated and the table
returns the transition from the warp's previous load — its PC and the
address delta, as a ``(pc1, stride)`` pair — which trains the Tail table.

The hardware table has N = #warps/2 rows with doubled warp-id/address
columns so that an aggressive (greedy) scheduler cannot starve inter-warp
detection; here capacity is expressed directly in warps and eviction is LRU,
which models the same storage bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

#: Schema version carried by every table snapshot (bumped on layout change).
SNAPSHOT_VERSION = 1


class HeadTable:
    """Per-warp last-load tracker with bounded capacity."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        self.accesses = 0

    def update(
        self, warp_id: int, pc: int, addr: int
    ) -> Optional[Tuple[int, int]]:
        """Record a load; returns ``(pc1, stride)`` — the warp's previous
        load PC and the address delta from it — or None on the warp's
        first load (or after eviction)."""
        self.accesses += 1
        rows = self._rows
        previous = rows.pop(warp_id, None)
        rows[warp_id] = (pc, addr)
        if len(rows) > self.capacity:
            rows.popitem(last=False)  # LRU warp falls out
        if previous is None:
            return None
        return previous[0], addr - previous[1]

    def lookup(self, warp_id: int) -> Optional[Tuple[int, int]]:
        return self._rows.get(warp_id)

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # Durability (snapshot/restore — repro.serve journal, warm-start sweeps)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic image of the full table state.

        Rows are listed in LRU order (the ``OrderedDict``'s insertion
        order), so two tables that absorbed the same update sequence
        produce byte-identical serialized snapshots.
        """
        return {
            "v": SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "accesses": self.accesses,
            "rows": [
                [warp_id, pc, addr]
                for warp_id, (pc, addr) in self._rows.items()
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "HeadTable":
        """Rebuild a table from :meth:`snapshot` output (exact state,
        including LRU order and the access counter)."""
        if data.get("v") != SNAPSHOT_VERSION:
            raise ValueError(
                "unsupported HeadTable snapshot version %r" % (data.get("v"),)
            )
        table = cls(capacity=int(data["capacity"]))
        table.accesses = int(data["accesses"])
        rows = data["rows"]
        if len(rows) > table.capacity:
            raise ValueError(
                "HeadTable snapshot holds %d rows > capacity %d"
                % (len(rows), table.capacity)
            )
        for row in rows:
            warp_id, pc, addr = row
            table._rows[int(warp_id)] = (int(pc), int(addr))
        return table
