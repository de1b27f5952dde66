"""Bandwidth-limited interconnect between an SM's L1 and the shared L2.

Modeled as a next-free-time resource: each transfer occupies the channel for
``ceil(bytes / bytes_per_cycle)`` cycles, so latency grows under load — the
effect behind the paper's bandwidth-utilization motivation (Fig 4) and
Snake's bandwidth-triggered throttling (§3.3).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple


class Interconnect:
    """One SM's port into the NoC (request + response modeled as a single
    shared channel, as the paper's utilization metric aggregates both)."""

    def __init__(
        self, bytes_per_cycle: int, latency: int, window: int = 256
    ) -> None:
        if bytes_per_cycle < 1:
            raise ValueError("bytes_per_cycle must be >= 1")
        if latency < 0 or window < 1:
            raise ValueError("invalid interconnect parameters")
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.window = window
        self.next_free = 0
        self.priority_next_free = 0
        self.bytes_transferred = 0
        self._recent: Deque[Tuple[int, int]] = deque()
        # Running byte total of ``_recent`` so utilization is O(expired)
        # instead of a full window sum per query — this is the hottest
        # read in the throttle path.
        self._recent_bytes = 0
        self._window_peak = window * bytes_per_cycle

    def send(self, now: int, nbytes: int, priority: bool = False) -> int:
        """Schedule a transfer; returns its arrival time at the far side.

        ``priority=True`` models the demand virtual channel: GPU NoCs serve
        demand responses ahead of prefetch fills, so priority traffic only
        queues behind other priority traffic, while best-effort (prefetch)
        traffic queues behind everything.
        """
        if nbytes < 1:
            raise ValueError("transfer must carry at least one byte")
        busy = math.ceil(nbytes / self.bytes_per_cycle)
        if priority:
            start = max(now, self.priority_next_free)
            self.priority_next_free = start + busy
            self.next_free = max(self.next_free, start + busy)
        else:
            start = max(now, self.next_free)
            self.next_free = start + busy
            self.priority_next_free = max(self.priority_next_free, now)
        self.bytes_transferred += nbytes
        self._recent.append((start, nbytes))
        self._recent_bytes += nbytes
        return start + busy + self.latency

    def measured_utilization(self, now: int) -> float:
        """Fraction of peak bandwidth used over the trailing window — the
        throttle's trigger metric."""
        horizon = now - self.window
        recent = self._recent
        while recent and recent[0][0] < horizon:
            self._recent_bytes -= recent.popleft()[1]
        peak = self._window_peak
        return min(1.0, self._recent_bytes / peak) if peak else 0.0

    def peak_bytes(self, cycles: int) -> int:
        """Theoretical capacity over a run of ``cycles``."""
        return cycles * self.bytes_per_cycle

    def snapshot(self) -> dict:
        """Plain-data port state for sanitizer / hang-report dumps.  The
        sanitizer compares successive snapshots: both horizons must be
        non-negative and non-decreasing, the priority (demand) horizon can
        never run ahead of the combined one, and the byte counter only
        grows — a horizon that moves backwards means some component
        rewound shared NoC state."""
        return {
            "next_free": self.next_free,
            "priority_next_free": self.priority_next_free,
            "bytes_transferred": self.bytes_transferred,
        }
