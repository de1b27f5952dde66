"""Naive reference for the SM's L1 prefetch issue lane.

Production hands a trigger's whole candidate vector to
``UnifiedL1Cache.prefetch_trigger``, which memoizes the throttle vote
across the trigger's requests, commits fills once per trigger and admits
every line of a request that passed the vote in one inlined body.  The
reference below is the original shape: per request, read the NoC
utilization and ask the throttle; on a refusal count one throttled drop
(and emit one ``ThrottleEvent``); otherwise coalesce the request and call
:func:`reference_prefetch` once per line, emitting a
``PrefetchIssueEvent`` for each line that left for L2.  It reads the
NoC for every vote, so it ignores the reading the SM's depth cap already
took.  Nothing in production calls it; the differential tests install it
over ``SM._issue_prefetches`` and check the count :func:`install` returns.
"""

from collections import Counter
from typing import List, Optional, Tuple, Union

from repro.gpusim.cache import LineState, MSHREntry
from repro.gpusim.coalescer import coalesce_lines
from repro.gpusim.sm import SM
from repro.gpusim.trace import WarpInstr
from repro.gpusim.unified_cache import UnifiedL1Cache
from repro.obs.events import (
    PrefetchDropEvent, PrefetchIssueEvent, ThrottleEvent,
)


def reference_prefetch(l1: UnifiedL1Cache, line_addr: int, now: int) -> bool:
    """Admit one prefetch line, committing fills at ``now`` first: the
    per-line admission ``prefetch_trigger`` inlines.  Returns True when a
    request actually left for L2."""
    l1._commit_fills(now)
    faults = l1._faults
    if faults is not None and faults.should("l1.evict_storm"):
        l1._evict_prefetch_storm(now)
    duplicate: Optional[Union[LineState, MSHREntry]] = l1.store.lookup(line_addr)
    if duplicate is None and l1.side_buffer is not None:
        duplicate = l1.side_buffer.lookup(line_addr)
    if duplicate is None:
        duplicate = l1._mshr.lookup(line_addr)
    if duplicate is not None:
        duplicate.predicted = True
        l1.stats.prefetch.dropped_duplicate += 1
        if l1._obs.enabled:
            l1._obs.emit(PrefetchDropEvent(
                cycle=now, sm_id=l1._sm_id, line_addr=line_addr,
                reason="duplicate",
            ))
        return False
    refused = (
        l1._mshr.occupancy >= l1._pf_mshr_cap
        or len(l1._miss_queue) >= l1._pf_queue_cap
    )
    reason = "headroom"
    if not refused and faults is not None and faults.fires(
        "l1.mshr_refuse", now, l1._sm_id, "prefetch %#x" % line_addr
    ):
        refused = True
        reason = "fault"
    if refused:
        l1.stats.prefetch.dropped_throttled += 1
        if l1._obs.enabled:
            l1._obs.emit(PrefetchDropEvent(
                cycle=now, sm_id=l1._sm_id, line_addr=line_addr,
                reason=reason,
            ))
        return False
    fill_time = l1._send_to_l2(line_addr, now, is_write=False, is_prefetch=True)
    entry = l1._mshr.allocate(line_addr, fill_time, is_prefetch=True)
    if faults is not None and faults.fires(
        "icnt.drop_fill", now, l1._sm_id, "prefetch %#x" % line_addr
    ):
        entry.dropped = True
    l1.stats.prefetch.issued += 1
    return True


def reference_issue_prefetches(
    sm: SM, requests: List[Tuple[int, int]], instr: WarpInstr
) -> None:
    """Issue one trigger's ``(base_addr, depth)`` requests one request,
    then one line, at a time."""
    for base_addr, depth in requests:
        # The paper's trigger metric is total NoC utilization (the Fig 4
        # measure): both directions against both directions' peak.
        utilization = 0.5 * (
            sm.icnt_req.measured_utilization(sm.now)
            + sm.icnt_resp.measured_utilization(sm.now)
        )
        if not sm.throttle.allow(sm.now, sm.l1, utilization):
            sm.stats.prefetch.dropped_throttled += 1
            if sm.obs.enabled:
                reason = (
                    "bandwidth" if getattr(sm.throttle, "bw_halted", False)
                    else "space"
                )
                sm.obs.emit(ThrottleEvent(
                    cycle=sm.now, sm_id=sm.sm_id, reason=reason,
                    utilization=utilization,
                ))
            continue
        issue_at = sm.now + sm.config.prefetcher_latency
        for line in coalesce_lines(
            base_addr, instr.thread_stride, instr.size_bytes,
            sm.config.warp_size, sm.l1.line_bytes,
        ):
            if reference_prefetch(sm.l1, line, issue_at) and sm.obs.enabled:
                sm.obs.emit(PrefetchIssueEvent(
                    cycle=issue_at, sm_id=sm.sm_id, pc=instr.pc,
                    line_addr=line, depth=depth,
                ))


def install(monkeypatch) -> Counter:
    """Make every SM in the test issue through the reference lane.
    Returns a counter whose ``"trigger"`` entry counts the triggers that
    reached it, so a test can show the reference really ran."""
    reached: Counter = Counter()

    def counted(sm, requests, instr, utilization):
        reached["trigger"] += 1
        reference_issue_prefetches(sm, requests, instr)

    monkeypatch.setattr(SM, "_issue_prefetches", counted)
    return reached
