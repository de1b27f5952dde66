"""Warp schedulers.

The baseline GPU (Table 1) uses Greedy-Then-Oldest: keep issuing from the
current warp until it stalls, then fall back to the oldest ready warp.  A
loose round-robin scheduler is provided for the "non-greedy scheduling"
setting of the paper's worked example (§3.4) and for ablations.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Protocol, Sequence


class SchedulableWarp(Protocol):
    """What a scheduler needs to know about a warp."""

    warp_id: int


class WarpScheduler(Protocol):
    """The scheduler interface the SM issue loop drives."""

    def pick(self, ready: Sequence[SchedulableWarp]) -> SchedulableWarp: ...

    def note_issued(self, warp: SchedulableWarp) -> None: ...


_WARP_ID = attrgetter("warp_id")


class GTOScheduler:
    """Greedy-then-oldest."""

    name = "gto"

    def __init__(self) -> None:
        self._last: Optional[int] = None

    def pick(self, ready: Sequence[SchedulableWarp]) -> SchedulableWarp:
        if not ready:
            raise ValueError("scheduler invoked with no ready warps")
        last = self._last
        if last is not None:
            for warp in ready:
                if warp.warp_id == last:
                    return warp
        oldest = ready[0] if len(ready) == 1 else min(ready, key=_WARP_ID)
        self._last = oldest.warp_id
        return oldest

    def note_issued(self, warp: SchedulableWarp) -> None:
        self._last = warp.warp_id


class RRScheduler:
    """Loose round-robin over warp ids."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, ready: Sequence[SchedulableWarp]) -> SchedulableWarp:
        if not ready:
            raise ValueError("scheduler invoked with no ready warps")
        # Warp ids are unique within an SM: the lowest id >= ``_next`` is
        # the first such warp in ascending id order.
        nxt = self._next
        later = [warp for warp in ready if warp.warp_id >= nxt]
        return min(later or ready, key=_WARP_ID)

    def note_issued(self, warp: SchedulableWarp) -> None:
        self._next = warp.warp_id + 1


class TwoLevelScheduler:
    """Two-level scheduler: a small *active* set of warps is scheduled
    round-robin; a warp leaves the set when it stalls long (handled
    implicitly by readiness) and pending warps rotate in.  Captures the
    fetch-group behaviour of Fermi/Kepler-era schedulers and serves as an
    ablation point against GTO."""

    name = "two_level"

    def __init__(self, active_size: int = 8) -> None:
        if active_size < 1:
            raise ValueError("active_size must be >= 1")
        self.active_size = active_size
        self._active: List[int] = []
        self._rr = RRScheduler()

    def pick(self, ready: Sequence[SchedulableWarp]) -> SchedulableWarp:
        if not ready:
            raise ValueError("scheduler invoked with no ready warps")
        ready_ids = {w.warp_id for w in ready}
        # drop active warps that are no longer ready, refill from ready set
        self._active = [w for w in self._active if w in ready_ids]
        for warp in sorted(ready, key=lambda w: w.warp_id):
            if len(self._active) >= self.active_size:
                break
            if warp.warp_id not in self._active:
                self._active.append(warp.warp_id)
        candidates = [w for w in ready if w.warp_id in self._active]
        return self._rr.pick(candidates or list(ready))

    def note_issued(self, warp: SchedulableWarp) -> None:
        self._rr.note_issued(warp)


def make_scheduler(name: str) -> WarpScheduler:
    """Factory keyed by the config's ``scheduler`` string."""
    if name == "gto":
        return GTOScheduler()
    if name == "rr":
        return RRScheduler()
    if name == "two_level":
        return TwoLevelScheduler()
    raise ValueError(
        "unknown scheduler %r (expected 'gto', 'rr' or 'two_level')" % name
    )
