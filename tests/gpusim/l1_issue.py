"""Issue single prefetch lines through the L1's one admission path."""

from repro.core.throttle import NullThrottle


def prefetch_line(l1, line_addr: int, now: int) -> bool:
    """Send line-aligned ``line_addr`` through ``prefetch_trigger`` as a
    one-line request (stride 0, 4-byte threads) under ``NullThrottle``,
    issuing at ``now``.  True when a request left for L2."""
    issued = l1.stats.prefetch.issued
    l1.prefetch_trigger(
        [(line_addr, 1)], 0, 4, pc=0, now=now, issue_at=now,
        throttle=NullThrottle(),
    )
    return l1.stats.prefetch.issued > issued
