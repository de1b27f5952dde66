"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two within a minute, as neighbours load the hardware; the
process's CPU time drifts with its wall time, so this is not preemption.
Every timed sample (a repetition or a set-up) is therefore bracketed by
runs of this yardstick, and the sample's seconds are rescaled to a
*reference host*: one on which the yardstick takes :data:`REF_S`.  A
drift that slows the program and the yardstick alike cancels out.

The yardstick has two parts, because a drift slows interpreter work and
memory accesses by different amounts and the simulator does both:

* a small event-driven cache model in plain Python (a heap of warps,
  set-associative LRU sets of slotted objects, dict lookups), which
  leans on the interpreter the way the simulator does;
* a dependent pointer chase through a 16 MiB table, larger than a
  core's private caches, so each step waits on the shared cache.

It imports nothing from the program, so no change to the program moves
it.  Changing it, or :data:`REF_S`, rescales every end-to-end metric: a
change that does must take a new baseline.
"""

from __future__ import annotations

import heapq
import time
from array import array
from typing import Callable, Dict, List, Tuple, TypeVar

#: Seconds the yardstick takes on the reference host.  About its time on
#: a 2-CPU x86-64 virtual machine (Python 3.11) when the host is fast.
REF_S = 0.03

#: Memory accesses the cache model simulates per run.
EVENTS = 12_000

#: Slots in the pointer-chase table (8 bytes each), and steps per run.
CHASE_SLOTS = 1 << 21
CHASE_STEPS = 75_000

#: The checksum a correct yardstick run returns.
CHECKSUM = 2031577515

T = TypeVar("T")


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


class _Cache:
    def __init__(self, sets: int, ways: int) -> None:
        self.sets: List[Dict[int, _Line]] = [{} for _ in range(sets)]
        self.ways = ways

    def access(self, addr: int, now: int) -> bool:
        tag = addr >> 7
        lines = self.sets[tag % len(self.sets)]
        line = lines.get(tag)
        if line is not None:
            line.stamp = now
            return True
        if len(lines) >= self.ways:
            victim = min(lines.values(), key=lambda l: l.stamp)
            del lines[victim.tag]
        lines[tag] = _Line(tag, now)
        return False


def chase_table() -> "array[int]":
    """Slot ``j`` holds ``(a * j + c) mod CHASE_SLOTS``; with ``c`` odd and
    ``a - 1`` a multiple of 4 that map is one cycle through every slot, in
    an order no hardware prefetcher follows."""
    mask = CHASE_SLOTS - 1
    return array("q", ((j * 1103515245 + 12345) & mask for j in range(CHASE_SLOTS)))


def yardstick(table: "array[int]") -> int:
    """Run the reference computation over a :func:`chase_table`; returns
    its checksum."""
    cache = _Cache(64, 8)
    heap: List[Tuple[int, int, int]] = [(w * 3, w, w * 4096) for w in range(32)]
    heapq.heapify(heap)
    check = 0
    for _ in range(EVENTS):
        now, warp, addr = heapq.heappop(heap)
        stride = 128 if warp & 1 else 384
        latency = 1 if cache.access(addr, now) else 20 + (addr >> 9) % 13
        check = (check * 31 + latency + warp) & 0xFFFFFFFF
        heapq.heappush(heap, (now + latency, warp, (addr + stride) % (1 << 20)))
    slot = 0
    for _ in range(CHASE_STEPS):
        slot = table[slot]
    return check ^ slot


class HostScale:
    """Rescales host seconds to the reference host.

    :meth:`around` runs a sample between two yardstick runs (the one
    after a sample serves as the one before the next) and returns the
    factor that turns the sample's seconds into reference-host seconds:
    :data:`REF_S` over the two runs' mean.
    """

    def __init__(self) -> None:
        self._table = chase_table()
        #: Every yardstick time taken, in order.
        self.times = [self._time()]

    def _time(self) -> float:
        start = time.perf_counter()
        check = yardstick(self._table)
        elapsed = time.perf_counter() - start
        if check != CHECKSUM:
            raise RuntimeError("yardstick checksum %d, expected %d" % (check, CHECKSUM))
        return elapsed

    def around(self, sample: Callable[[], T]) -> Tuple[T, float]:
        before = self.times[-1]
        result = sample()
        self.times.append(self._time())
        return result, 2 * REF_S / (before + self.times[-1])


__all__ = [
    "CHASE_SLOTS",
    "CHASE_STEPS",
    "CHECKSUM",
    "EVENTS",
    "HostScale",
    "REF_S",
    "chase_table",
    "yardstick",
]
