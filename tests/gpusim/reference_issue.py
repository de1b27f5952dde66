"""Naive reference for the SM's L1 prefetch issue lane.

Production hands a trigger's whole candidate vector to
``UnifiedL1Cache.prefetch_trigger``, which memoizes the throttle vote
across the trigger's requests and sends every line of a request that
passed it through ``UnifiedL1Cache.prefetch``.  The reference below is
the original shape: per request, read the NoC utilization and ask the
throttle; on a refusal count one throttled drop (and emit one
``ThrottleEvent``); otherwise coalesce the request and call
``UnifiedL1Cache.prefetch`` once per line, emitting a
``PrefetchIssueEvent`` for each line that left for L2.  It reads the
NoC for every vote, so it ignores the reading the SM's depth cap already
took.  Nothing in production calls it; the differential tests install it
over ``SM._issue_prefetches`` and check the count :func:`install` returns.
"""

from collections import Counter
from typing import List, Tuple

from repro.gpusim.coalescer import coalesce_lines
from repro.gpusim.sm import SM
from repro.gpusim.trace import WarpInstr
from repro.obs.events import PrefetchIssueEvent, ThrottleEvent


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
            if sm.l1.prefetch(line, issue_at) and sm.obs.enabled:
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
