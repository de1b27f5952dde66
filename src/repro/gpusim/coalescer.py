"""Memory-access coalescer.

GPUs merge the 32 per-thread addresses of a warp memory instruction into the
minimal set of cache-line transactions.  Because traces encode a warp access
as ``(base_addr, thread_stride, size)`` the coalescer is a small piece of
arithmetic rather than a 32-way sort.

Coalescing is translation-invariant: ``line_of(x + k*L) == line_of(x) + k*L``
for any integer ``k``, so the *shape* of the transaction list depends only on
``base_addr % line_bytes`` plus the stride/size, never on the absolute base.
The expansion is therefore computed once per shape (a key space of at most
``line_bytes`` offsets times the handful of stride/size pairs a trace uses)
and replayed by adding the line-aligned base back — this is the hottest
per-instruction path in the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .trace import WarpInstr


def line_of(addr: int, line_bytes: int) -> int:
    """The line-aligned address containing ``addr``."""
    return addr - (addr % line_bytes)


# shape key (base % L, stride, size, warp_size, L) -> line offsets from the
# aligned base.  Bounded by the trace's distinct access shapes, not its
# address footprint.
_PATTERN_MEMO: Dict[Tuple[int, int, int, int, int], List[int]] = {}

# Same memoization for the sectored variant: shape key plus sector size maps
# to (line offset -> sector bitmask).
_SECTOR_MEMO: Dict[Tuple[int, int, int, int, int, int], Dict[int, int]] = {}


def _expand_pattern(
    rem: int, stride: int, size_bytes: int, warp_size: int, line_bytes: int
) -> List[int]:
    """Line offsets (relative to the aligned base) of one access shape."""
    if stride == 0:
        # Broadcast: every thread reads the same [base, base+size) window.
        last = line_of(rem + size_bytes - 1, line_bytes)
        return list(range(0, last + 1, line_bytes))
    if stride > 0:
        # Monotonic fast path.  Each thread touches the contiguous line
        # range [line_of(start), line_of(start + size - 1)] and successive
        # threads start no earlier, so the first-seen emission order of the
        # generic scan below is simply ascending line order, and merging the
        # per-thread ranges in thread order dedupes them.
        lines: List[int] = []
        last: Optional[int] = None
        for t in range(warp_size):
            start = rem + t * stride
            first = line_of(start, line_bytes)
            end = line_of(start + size_bytes - 1, line_bytes)
            if last is not None and first <= last:
                first = last + line_bytes
            if first <= end:
                lines.extend(range(first, end + line_bytes, line_bytes))
                last = end
        return lines

    # Negative strides break the monotone-emission argument; keep the
    # generic first-seen scan (order matters downstream).
    fallback: List[int] = []
    seen = set()
    for t in range(warp_size):
        start = rem + t * stride
        for offset in range(0, size_bytes, line_bytes):
            line = line_of(start + offset, line_bytes)
            if line not in seen:
                seen.add(line)
                fallback.append(line)
        # include the final byte's line for accesses spanning a boundary
        end_line = line_of(start + size_bytes - 1, line_bytes)
        if end_line not in seen:
            seen.add(end_line)
            fallback.append(end_line)
    return fallback


def line_offsets(
    rem: int, stride: int, size_bytes: int, warp_size: int, line_bytes: int
) -> List[int]:
    """The memoized shape of an access whose base sits ``rem`` bytes into
    its line: line offsets from the line-aligned base, in emission order.
    Callers add the aligned base back; the list is shared, never mutate it."""
    key = (rem, stride, size_bytes, warp_size, line_bytes)
    pattern = _PATTERN_MEMO.get(key)
    if pattern is None:
        pattern = _expand_pattern(rem, stride, size_bytes, warp_size, line_bytes)
        _PATTERN_MEMO[key] = pattern
    return pattern


def coalesce_lines(
    base: int, stride: int, size_bytes: int, warp_size: int, line_bytes: int
) -> List[int]:
    """Raw-argument form of :func:`coalesce` — the hot path for demand
    loads and stores, which would otherwise go through the instruction's
    op check, and for prefetch footprints."""
    if line_bytes <= 0:
        raise ValueError("line_bytes must be positive")
    if base < 0:
        raise ValueError("memory instruction needs a non-negative address")
    rem = base % line_bytes
    shift = base - rem
    pattern = line_offsets(rem, stride, size_bytes, warp_size, line_bytes)
    return [shift + off for off in pattern]


def coalesce(
    instr: WarpInstr, warp_size: int, line_bytes: int
) -> List[int]:
    """Expand a warp memory instruction into unique, ordered line addresses.

    A zero thread-stride (all threads hit the same word, e.g. a broadcast
    load) coalesces to a single line; a unit stride over 4-byte words touches
    one line per 32 threads; scattered strides touch up to ``warp_size``
    lines.
    """
    if not instr.is_mem:
        raise ValueError("cannot coalesce non-memory instruction %r" % (instr,))
    return coalesce_lines(
        instr.base_addr, instr.thread_stride, instr.size_bytes,
        warp_size, line_bytes,
    )


def _expand_sectors(
    rem: int, stride: int, size_bytes: int, warp_size: int,
    line_bytes: int, sector_bytes: int,
) -> Dict[int, int]:
    masks: Dict[int, int] = {}

    def touch(addr: int) -> None:
        line = line_of(addr, line_bytes)
        sector = (addr - line) // sector_bytes
        masks[line] = masks.get(line, 0) | (1 << sector)

    threads = 1 if stride == 0 else warp_size
    for t in range(threads):
        start = rem + t * stride
        addr = start
        while addr < start + size_bytes:
            touch(addr)
            addr += sector_bytes
        touch(start + size_bytes - 1)
    return masks


def coalesce_sectors(
    instr: WarpInstr, warp_size: int, line_bytes: int, sector_bytes: int
) -> "dict[int, int]":
    """Like :func:`coalesce`, but returns {line address: sector bitmask} —
    which ``sector_bytes``-sized chunks of each line the warp touches."""
    if sector_bytes <= 0 or line_bytes % sector_bytes != 0:
        raise ValueError("sector_bytes must divide line_bytes")
    base = instr.base_addr
    rem = base % line_bytes
    key = (
        rem, instr.thread_stride, instr.size_bytes, warp_size,
        line_bytes, sector_bytes,
    )
    pattern = _SECTOR_MEMO.get(key)
    if pattern is None:
        pattern = _expand_sectors(
            rem, instr.thread_stride, instr.size_bytes, warp_size,
            line_bytes, sector_bytes,
        )
        _SECTOR_MEMO[key] = pattern
    shift = base - rem
    return {shift + off: mask for off, mask in pattern.items()}
