"""The naive run loop the event-driven core must stay cycle-identical to.

``GPU._run_loop_event`` keeps SMs in a heap keyed by their next-event
horizon and takes each SM's ready set off its wake heap.  The reference
below is the original shape: every iteration picks the SM with the
smallest clock (first in list on ties) and advances it one quantum by
scanning *every* resident warp.  Nothing in production calls it; the
differential tests install it in place of the event loop::

    def test_something(monkeypatch):
        reference_loop.install(monkeypatch)
        ...  # every GPU.run now steps through reference_step
"""

from typing import List, Optional

from repro.gpusim.gpu import GPU
from repro.gpusim.sanitizer import SimSanitizer
from repro.gpusim.sm import SM
from repro.gpusim.watchdog import Watchdog


def reference_step(sm: SM) -> bool:
    """Advance ``sm`` by one quantum — either one issue cycle or a jump to
    the next warp-ready event.  Returns False once all work retired."""
    runnable = [w for w in sm._warps if not w.finished and not w.at_barrier]
    if not runnable:
        if sm._cta_queue:
            sm._activate_ctas()
            return True
        return False

    ready = [w for w in runnable if w.ready_at <= sm.now]
    if not ready:
        next_time = min(w.ready_at for w in runnable)
        gap = next_time - sm.now
        sm.stats.stall_cycles_total += gap
        if all(w.waiting_on_memory for w in runnable):
            sm.stats.stall_cycles_memory += gap
        sm.now = next_time
        return True

    issued = 0
    while issued < sm._issue_width:
        ready = [
            w
            for w in sm._warps
            if not w.finished and not w.at_barrier and w.ready_at <= sm.now
        ]
        if not ready:
            break
        warp = sm.scheduler.pick(ready)
        sm._issue(warp)
        sm.scheduler.note_issued(warp)
        issued += 1
    sm.now += 1
    return True


def reference_run_loop(
    gpu: GPU,
    active: List[SM],
    watchdog: Optional[Watchdog],
    sanitizer: Optional[SimSanitizer],
) -> None:
    """Step the SM with the smallest clock until every SM retired, with
    the event loop's watchdog and sanitizer cadence."""
    iterations = 0
    while active:
        sm = min(active, key=lambda s: s.now)
        if not reference_step(sm):
            sm.finalize()
            active.remove(sm)
        iterations += 1
        if iterations & 0xFF == 0:
            if watchdog is not None:
                watchdog.check(sm.now)
            if sanitizer is not None:
                sanitizer.maybe_check(sm.now)


def install(monkeypatch) -> None:
    """Make every ``GPU.run`` in the test use the reference loop."""
    monkeypatch.setattr(GPU, "_run_loop_event", reference_run_loop)
