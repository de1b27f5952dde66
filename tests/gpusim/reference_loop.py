"""The naive run loop the event-driven core must stay cycle-identical to.

``GPU._run_loop_event`` keeps SMs in a heap keyed by their next-event
horizon and takes each SM's ready set off its wake heap.  The reference
below is the original shape: every iteration picks the SM with the
smallest clock (first in list on ties) and advances it one quantum by
scanning *every* resident warp.

``SM._issue`` indexes the warp's instruction list, compares ops against
module-level aliases, completes ALU/SFU inline and coalesces memory
instructions from their raw fields.  The reference loop issues through
:func:`reference_issue` instead, the original shape: ``current_instr``,
an ``is``-chain over ``Op``, a ``_complete`` call per instruction,
``coalesce(instr, ...)`` and ``max()`` per line.  Barriers and the
prefetcher hook are the production ones.

Nothing in production calls it; the differential tests install it in
place of the event loop and check the count :func:`install` returns::

    def test_something(monkeypatch):
        reached = reference_loop.install(monkeypatch)
        ...  # every GPU.run now steps through reference_step
        assert reached["issue"] > 0
"""

from collections import Counter
from typing import List, Optional

from repro.gpusim.coalescer import coalesce, coalesce_sectors
from repro.gpusim.gpu import GPU
from repro.gpusim.sanitizer import SimSanitizer
from repro.gpusim.sm import SM, WarpState
from repro.gpusim.trace import Op, WarpInstr
from repro.gpusim.unified_cache import L1Outcome
from repro.gpusim.watchdog import Watchdog
from repro.obs.events import CacheAccessEvent


def complete(sm: SM, warp: WarpState) -> None:
    """Retire the warp's current instruction."""
    warp.ip += 1
    sm.stats.instructions += 1
    if warp.ip >= len(warp.trace.instrs):
        sm._finish_warp(warp)


def issue_mem_lines(
    sm: SM, warp: WarpState, lines: List[int], is_load: bool, replay: bool
) -> None:
    """Send a load's lines to the L1 in order; a reservation fail parks
    the rest for replay."""
    ready = sm.now
    remaining: List[int] = []
    failed = False
    observing = sm.obs.enabled
    for idx, line in enumerate(lines):
        if failed:
            remaining.append(line)
            continue
        if observing:
            prefetch_stats = sm.stats.prefetch
            covered_before = prefetch_stats.demand_covered
            timely_before = prefetch_stats.demand_timely
        outcome, when = sm.l1.demand_load(
            line, sm.now, sector_mask=warp.sector_masks.get(line, -1)
        )
        if observing:
            instr = warp.current_instr
            sm.obs.emit(
                CacheAccessEvent(
                    cycle=sm.now,
                    sm_id=sm.sm_id,
                    warp_id=warp.warp_id,
                    pc=instr.pc if instr is not None else -1,
                    line_addr=line,
                    outcome=outcome.value,
                    covered=prefetch_stats.demand_covered > covered_before,
                    timely=prefetch_stats.demand_timely > timely_before,
                )
            )
        if outcome is L1Outcome.RESERVATION_FAIL:
            failed = True
            remaining.append(line)
            warp.ready_at = when
        else:
            ready = max(ready, when)
    if not warp.waiting_on_memory:
        warp.waiting_on_memory = True
        sm._active_non_mem -= 1
    if failed:
        warp.replay_lines = remaining
        warp.replay_ready = max(ready, warp.ready_at)
        return
    warp.replay_lines = []
    warp.ready_at = max(ready, warp.replay_ready)
    warp.replay_ready = 0
    complete(sm, warp)


def issue_load(sm: SM, warp: WarpState, instr: WarpInstr) -> None:
    """Coalesce a load, feed the prefetcher and send its lines."""
    if sm.config.l1_sector_bytes:
        masks = coalesce_sectors(
            instr, sm.config.warp_size, sm.l1.line_bytes,
            sm.config.l1_sector_bytes,
        )
        lines = list(masks)
        warp.sector_masks = masks
    else:
        lines = coalesce(instr, sm.config.warp_size, sm.l1.line_bytes)
        warp.sector_masks = {}
    if not sm._pf_skip:
        sm._feed_prefetcher(warp, instr, lines[0])
    issue_mem_lines(sm, warp, lines, is_load=True, replay=False)


def issue_store(sm: SM, warp: WarpState, instr: WarpInstr) -> None:
    """Write every line through; the store retires with the last one."""
    lines = coalesce(instr, sm.config.warp_size, sm.l1.line_bytes)
    done = sm.now
    for line in lines:
        done = max(done, sm.l1.demand_store(line, sm.now))
    warp.ready_at = done
    if warp.waiting_on_memory:
        warp.waiting_on_memory = False
        sm._active_non_mem += 1
    complete(sm, warp)


def reference_issue(sm: SM, warp: WarpState) -> None:
    """Issue the warp's next instruction (or its pending replay)."""
    if warp.replay_lines:
        issue_mem_lines(sm, warp, warp.replay_lines, is_load=True, replay=True)
        return

    instr = warp.current_instr
    if instr is None:
        sm._finish_warp(warp)
        return

    if instr.op is Op.ALU:
        warp.ready_at = sm.now + sm.config.alu_latency
        if warp.waiting_on_memory:
            warp.waiting_on_memory = False
            sm._active_non_mem += 1
        complete(sm, warp)
    elif instr.op is Op.SFU:
        warp.ready_at = sm.now + sm.config.sfu_latency
        if warp.waiting_on_memory:
            warp.waiting_on_memory = False
            sm._active_non_mem += 1
        complete(sm, warp)
    elif instr.op is Op.BARRIER:
        sm._arrive_barrier(warp)
    elif instr.op is Op.LOAD:
        issue_load(sm, warp, instr)
    elif instr.op is Op.STORE:
        issue_store(sm, warp, instr)
    else:
        raise ValueError("unknown op %r" % instr.op)


def reference_step(sm: SM, reached: Counter) -> bool:
    """Advance ``sm`` by one quantum — either one issue cycle or a jump to
    the next warp-ready event; ``reached`` counts the issues.  Returns
    False once all work retired."""
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
        reached["issue"] += 1
        reference_issue(sm, warp)
        sm.scheduler.note_issued(warp)
        issued += 1
    sm.now += 1
    return True


def reference_run_loop(
    gpu: GPU,
    active: List[SM],
    watchdog: Optional[Watchdog],
    sanitizer: Optional[SimSanitizer],
    reached: Counter,
) -> None:
    """Step the SM with the smallest clock until every SM retired, with
    the event loop's watchdog and sanitizer cadence."""
    iterations = 0
    while active:
        sm = min(active, key=lambda s: s.now)
        if not reference_step(sm, reached):
            sm.finalize()
            active.remove(sm)
        iterations += 1
        if iterations & 0xFF == 0:
            if watchdog is not None:
                watchdog.check(sm.now)
            if sanitizer is not None:
                sanitizer.maybe_check(sm.now)


def install(monkeypatch) -> Counter:
    """Make every ``GPU.run`` in the test use the reference loop.  Returns
    a counter whose ``"issue"`` entry counts the instructions issued
    through :func:`reference_issue`, so a test can show the reference
    really ran."""
    reached: Counter = Counter()

    def run_loop(gpu, active, watchdog, sanitizer):
        reference_run_loop(gpu, active, watchdog, sanitizer, reached)

    monkeypatch.setattr(GPU, "_run_loop_event", run_loop)
    return reached
