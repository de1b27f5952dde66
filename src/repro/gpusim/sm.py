"""Streaming Multiprocessor timing model.

The SM is event-driven: each warp carries a ``ready_at`` timestamp, the issue
loop issues up to ``issue_width`` instructions per cycle from ready warps and
fast-forwards over periods where every warp is stalled, classifying those
skipped cycles as memory or pipeline stalls (Fig 5's metric).

Loads are coalesced into line transactions against the unified L1
(:mod:`repro.gpusim.unified_cache`); a reservation fail leaves the warp to
replay the remaining transactions, exactly the retry behaviour §2 describes.
Every first issue of a load also feeds the attached prefetcher, whose
predictions enter the L1's prefetch path under the throttle's control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Protocol, Tuple

from collections import deque
from heapq import heappop, heappush

from repro.obs.events import BusLike, CacheAccessEvent, NULL_BUS
from repro.prefetch.base import Prefetcher

# ``coalesce`` is unused here but stays bound: perfbench wraps this module's names.
from .coalescer import coalesce, coalesce_lines, coalesce_sectors  # noqa: F401
from .config import GPUConfig
from .faults import FaultInjector
from .interconnect import Interconnect
from .l2 import L2Cache
from .scheduler import make_scheduler
from .stats import SimStats
from .trace import CTA, Op, WarpInstr, WarpTrace
from .unified_cache import L1Outcome, StorageMode, UnifiedL1Cache

# ``op is _ALU`` skips the ``Op.ALU`` lookup; an Op-keyed dict hashes via Enum.__hash__.
_ALU = Op.ALU
_SFU = Op.SFU
_LOAD = Op.LOAD
_STORE = Op.STORE
_BARRIER = Op.BARRIER
_RESERVATION_FAIL = L1Outcome.RESERVATION_FAIL


@dataclass(slots=True)
class WarpState:
    """Execution state of one resident warp."""

    warp_id: int
    cta_id: int
    trace: WarpTrace
    instrs: List[WarpInstr]  # ``trace.instrs``, read directly by ``_issue``
    ip: int = 0
    ready_at: int = 0
    finished: bool = False
    waiting_on_memory: bool = False
    at_barrier: bool = False
    # Lines of a partially-issued memory instruction awaiting replay.
    replay_lines: List[int] = field(default_factory=list)
    replay_ready: int = 0
    # Per-line sector masks of the in-flight instruction (sectored L1 only).
    sector_masks: Dict[int, int] = field(default_factory=dict)

    @property
    def current_instr(self) -> Optional[WarpInstr]:
        if self.ip < len(self.trace.instrs):
            return self.trace.instrs[self.ip]
        return None


class ThrottlePolicy(Protocol):
    """What the SM needs from a prefetch throttle (structural — satisfied
    by :class:`repro.core.throttle.Throttle` and ``NullThrottle`` without
    either importing this module)."""

    def allow(
        self, now: int, l1: UnifiedL1Cache, utilization: float
    ) -> bool: ...

    def chain_depth_limit(self, utilization: float, max_depth: int) -> int: ...

    def snapshot(self) -> dict: ...


class SM:
    """One streaming multiprocessor plus its private memory front end."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        l2: L2Cache,
        prefetcher: Prefetcher,
        throttle: ThrottlePolicy,
        storage_mode: StorageMode = StorageMode.COUPLED,
        obs: Optional[BusLike] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.stats = SimStats()
        self.obs = obs if obs is not None else NULL_BUS
        self._faults = faults  # optional chaos hook (snake.tail_corrupt)
        self.icnt_req = Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency)
        self.icnt_resp = Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency)
        self.l1 = UnifiedL1Cache(
            config, self.icnt_req, self.icnt_resp, l2, self.stats,
            mode=storage_mode, obs=self.obs, sm_id=sm_id, faults=faults,
        )
        self.prefetcher = prefetcher
        # Whether the prefetcher accepts a dynamic chain-depth cap; probed
        # once here instead of per observed access.
        self._pf_has_depth_limit = hasattr(prefetcher, "set_depth_limit")
        # The one observe call per load, bound once: the load's fields in,
        # (base_addr, depth) pairs out.
        self._pf_observe = prefetcher.observe
        # A mechanism that never predicts ("none" baseline keeps the base
        # class observe) makes the whole prefetcher hook a no-op, so loads
        # skip it entirely — unless a fault injector is armed, whose
        # corrupt-tail RNG draws must keep their per-load cadence.
        self._pf_skip = (
            type(prefetcher).observe is Prefetcher.observe
            and not prefetcher.uses_magic
            and faults is None
        )
        self.throttle = throttle
        self.scheduler = make_scheduler(config.scheduler)
        # Each scheduler issues at most one instruction per cycle, so the
        # per-cycle issue bandwidth is capped by whichever is smaller.
        self._issue_width = min(config.issue_width, config.schedulers_per_sm)
        # Hot-path config reads hoisted once (issue loop runs per cycle).
        self._alu_latency = config.alu_latency
        self._sfu_latency = config.sfu_latency
        self._sector_bytes = config.l1_sector_bytes
        self._warp_size = config.warp_size
        self._line_bytes = self.l1.line_bytes
        self._prefetcher_latency = config.prefetcher_latency

        self._cta_queue: Deque[CTA] = deque()
        self._cta_app: Dict[int, int] = {}
        self._warps: List[WarpState] = []
        self._barrier_waits: Dict[int, int] = {}
        self._cta_live_warps: Dict[int, int] = {}
        # Event-core bookkeeping (docs/PERFORMANCE.md).  ``_live`` mirrors
        # ``sum(1 for w in _warps if not w.finished)``.
        self._live = 0
        # Wake heap (event core): every unfinished, non-parked warp sits in
        # the heap exactly once, keyed by (ready_at, push order).  A warp's
        # ``ready_at`` only moves while it is *out* of the heap (it is
        # popped before issuing, re-pushed after; barrier parking removes
        # it, release re-adds it), so entries are never stale and the head
        # is an exact next-wakeup horizon — no per-quantum scan of all
        # resident warps.
        self._wake: List[Tuple[int, int, WarpState]] = []
        self._wake_seq = 0
        # Count of unfinished, non-parked warps with ``waiting_on_memory``
        # False: the stall-classification predicate ``all(w.waiting_on_memory
        # for w in runnable)`` is exactly ``_active_non_mem == 0`` whenever
        # the ready set is empty.  Maintained at every flag transition.
        self._active_non_mem = 0
        self.now = 0

    # ------------------------------------------------------------------
    # CTA management

    def enqueue_cta(self, cta: CTA, app_id: int = 0) -> None:
        self._cta_queue.append(cta)
        self._cta_app[cta.cta_id] = app_id

    def _activate_ctas(self) -> None:
        """Bring queued CTAs on-core while warp slots remain."""
        while self._cta_queue:
            cta = self._cta_queue[0]
            if self._live + len(cta.warps) > self.config.max_warps_per_sm:
                break
            self._cta_queue.popleft()
            self._cta_live_warps[cta.cta_id] = len(cta.warps)
            self._live += len(cta.warps)
            for trace in cta.warps:
                warp = WarpState(
                    warp_id=trace.warp_id,
                    cta_id=cta.cta_id,
                    trace=trace,
                    instrs=trace.instrs,
                    ready_at=self.now,
                )
                self._warps.append(warp)
                self._active_non_mem += 1
                seq = self._wake_seq
                self._wake_seq = seq + 1
                heappush(self._wake, (warp.ready_at, seq, warp))

    # ------------------------------------------------------------------
    # Main loop

    def start(self) -> None:
        """Activate the first CTAs; call before stepping."""
        self._activate_ctas()

    def step_event(self) -> Optional[int]:
        """Advance this SM by one quantum — either one issue cycle or a
        jump to the next warp-ready event — and return its next-event
        horizon (the earliest cycle it can make further progress), or
        None once all work retired.

        The GPU interleaves SMs in global-time order so that accesses to
        the *shared* L2/DRAM resources happen in chronological order —
        simulating SMs to completion one after another would make a later
        SM's early requests queue behind the entire lifetime of traffic
        from earlier SMs.

        The ready set comes off the wake heap (its invariant is documented
        at ``_wake``), and the schedulers are ready-*set* functions, never
        ready-*order* functions, so heap pop order cannot perturb a pick.
        Statistics must be cycle-identical to the step-every-warp scan in
        ``tests/gpusim/reference_loop.py``;
        ``tests/gpusim/test_skip_ahead.py`` enforces this differentially.
        """
        now = self.now
        wake = self._wake
        ready: List[WarpState] = []
        while wake and wake[0][0] <= now:
            w = heappop(wake)[2]
            if not w.finished and not w.at_barrier:
                ready.append(w)
        if not ready:
            if not wake:
                # No unfinished, non-parked warp exists (parked warps always
                # have a runnable sibling holding the barrier open).
                if self._cta_queue:
                    self._activate_ctas()
                    return self.now
                return None
            next_time = wake[0][0]
            gap = next_time - now
            self.stats.stall_cycles_total += gap
            if self._active_non_mem == 0:
                self.stats.stall_cycles_memory += gap
            self.now = next_time
            return next_time

        scheduler = self.scheduler
        issue = self._issue
        width = self._issue_width
        issued = 0
        while issued < width and ready:
            warp = scheduler.pick(ready)
            issue(warp)
            scheduler.note_issued(warp)
            issued += 1
            if ready[-1] is warp:
                ready.pop()
            else:
                for idx, w in enumerate(ready):  # by identity, not __eq__
                    if w is warp:
                        del ready[idx]
                        break
            # CTAs activated by a retirement push warps with ready_at ==
            # now: drain them into this quantum's ready set (the reference
            # rescan would also pick them up) *before* re-parking the
            # issued warp, which must not re-enter the set this quantum.
            while wake and wake[0][0] <= now:
                w = heappop(wake)[2]
                if not w.finished and not w.at_barrier:
                    ready.append(w)
            if not warp.finished and not warp.at_barrier:
                seq = self._wake_seq
                self._wake_seq = seq + 1
                heappush(wake, (warp.ready_at, seq, warp))
        for w in ready:  # leftovers stay ready for the next quantum
            seq = self._wake_seq
            self._wake_seq = seq + 1
            heappush(wake, (w.ready_at, seq, w))
        self.now = now + 1
        return self.now

    def finalize(self) -> SimStats:
        """Close out the statistics after the last step."""
        self.stats.cycles = self.now
        self.stats.icnt_peak_bytes = (
            self.icnt_req.peak_bytes(self.now) + self.icnt_resp.peak_bytes(self.now)
        )
        self.stats.prefetch.table_accesses = self.prefetcher.table_accesses()
        return self.stats

    def run(self) -> SimStats:
        """Single-SM convenience: step to completion."""
        self.start()
        while self.step_event() is not None:
            pass
        return self.finalize()

    # ------------------------------------------------------------------
    # Instruction issue

    def _issue(self, warp: WarpState) -> None:
        if warp.replay_lines:
            self._issue_mem_lines(warp, warp.replay_lines)
            return

        instrs = warp.instrs
        ip = warp.ip
        if ip >= len(instrs):
            self._finish_warp(warp)
            return

        instr = instrs[ip]
        op = instr.op
        if op is _ALU or op is _SFU:
            # Inlined completion (``_complete``) of the fixed-latency ops.
            warp.ready_at = self.now + (
                self._alu_latency if op is _ALU else self._sfu_latency
            )
            if warp.waiting_on_memory:
                warp.waiting_on_memory = False
                self._active_non_mem += 1
            warp.ip = ip = ip + 1
            self.stats.instructions += 1
            if ip >= len(instrs):
                self._finish_warp(warp)
        elif op is _LOAD:
            self._issue_load(warp, instr)
        elif op is _STORE:
            self._issue_store(warp, instr)
        elif op is _BARRIER:
            self._arrive_barrier(warp)
        else:  # pragma: no cover - exhaustive over Op
            raise ValueError("unknown op %r" % op)

    def _complete(self, warp: WarpState) -> None:
        warp.ip += 1
        self.stats.instructions += 1
        if warp.ip >= len(warp.instrs):
            self._finish_warp(warp)

    def _finish_warp(self, warp: WarpState) -> None:
        if warp.finished:
            return
        warp.finished = True
        if not warp.waiting_on_memory:
            self._active_non_mem -= 1
        self._live -= 1
        self.stats.warps_finished += 1
        cta = warp.cta_id
        self._cta_live_warps[cta] -= 1
        if self._cta_live_warps[cta] == 0:
            self._activate_ctas()

    # ------------------------------------------------------------------
    # Memory instructions

    def _issue_load(self, warp: WarpState, instr: WarpInstr) -> None:
        if self._sector_bytes:
            masks = coalesce_sectors(
                instr, self._warp_size, self._line_bytes, self._sector_bytes
            )
            lines = list(masks)
            warp.sector_masks = masks
        else:
            # ``_issue`` checked the op.  ``sector_masks`` stays empty here.
            lines = coalesce_lines(
                instr.base_addr, instr.thread_stride, instr.size_bytes,
                self._warp_size, self._line_bytes,
            )
        if not self._pf_skip:
            self._feed_prefetcher(warp, instr)
        self._issue_mem_lines(warp, lines)

    def _issue_mem_lines(self, warp: WarpState, lines: List[int]) -> None:
        ready = now = self.now
        demand_load = self.l1.demand_load
        masks = warp.sector_masks
        remaining: List[int] = []
        observing = self.obs.enabled
        for idx, line in enumerate(lines):
            if observing:
                prefetch_stats = self.stats.prefetch
                covered_before = prefetch_stats.demand_covered
                timely_before = prefetch_stats.demand_timely
            outcome, when = demand_load(
                line, now, sector_mask=masks.get(line, -1) if masks else -1
            )
            if observing:
                instr = warp.current_instr
                self.obs.emit(
                    CacheAccessEvent(
                        cycle=now,
                        sm_id=self.sm_id,
                        warp_id=warp.warp_id,
                        pc=instr.pc if instr is not None else -1,
                        line_addr=line,
                        outcome=outcome.value,
                        covered=prefetch_stats.demand_covered > covered_before,
                        timely=prefetch_stats.demand_timely > timely_before,
                    )
                )
            if outcome is _RESERVATION_FAIL:
                remaining = lines[idx:]  # this line and the rest replay
                warp.ready_at = when
                break
            if when > ready:
                ready = when
        if not warp.waiting_on_memory:
            warp.waiting_on_memory = True
            self._active_non_mem -= 1
        if remaining:
            warp.replay_lines = remaining
            warp.replay_ready = max(ready, warp.ready_at)
            return
        # All transactions accepted: the instruction completes when the last
        # fill arrives (and no earlier than any prior replayed portion).
        warp.replay_lines = []
        warp.ready_at = max(ready, warp.replay_ready)
        warp.replay_ready = 0
        self._complete(warp)

    def _issue_store(self, warp: WarpState, instr: WarpInstr) -> None:
        now = done = self.now
        for line in coalesce_lines(
            instr.base_addr, instr.thread_stride, instr.size_bytes,
            self._warp_size, self._line_bytes,
        ):
            done = max(done, self.l1.demand_store(line, now))
        warp.ready_at = done
        if warp.waiting_on_memory:
            warp.waiting_on_memory = False
            self._active_non_mem += 1
        self._complete(warp)

    # ------------------------------------------------------------------
    # Prefetcher hook

    def _feed_prefetcher(self, warp: WarpState, instr: WarpInstr) -> None:
        app_id = self._cta_app.get(warp.cta_id, 0)
        utilization: Optional[float] = None
        if self._pf_has_depth_limit:
            utilization = 0.5 * (
                self.icnt_req.measured_utilization(self.now)
                + self.icnt_resp.measured_utilization(self.now)
            )
            self.prefetcher.set_depth_limit(
                self.throttle.chain_depth_limit(
                    utilization, self.config.max_chain_depth
                )
            )
        if self._faults is not None:
            # Chaos snake.tail_corrupt: scramble a chain link right before
            # the tables are consulted — predictions may go wrong, demand
            # correctness cannot.
            self._faults.corrupt_tail(self.prefetcher, self.now, self.sm_id)
        pairs = self._pf_observe(
            warp.warp_id, instr.pc, instr.base_addr, app_id,
            instr.divergent, self.now, warp.cta_id,
        )
        if not pairs:
            return
        self.l1.prefetcher_trained = self.prefetcher.trained
        if self.prefetcher.uses_magic:
            self._issue_prefetch(pairs, instr)
        else:
            self._issue_prefetches(pairs, instr, utilization)

    def _issue_prefetch(
        self, requests: List[Tuple[int, int]], instr: WarpInstr
    ) -> None:
        """The Ideal oracle's fill: every requested line lands in the L1's
        magic storage, with no throttle, latency or bandwidth."""
        for base_addr, _depth in requests:
            for line in coalesce_lines(
                base_addr, instr.thread_stride, instr.size_bytes,
                self._warp_size, self._line_bytes,
            ):
                self.l1.magic_prefetch(line)

    def _issue_prefetches(
        self, requests: List[Tuple[int, int]], instr: WarpInstr,
        utilization: Optional[float],
    ) -> None:
        """Issue one trigger's ``(base_addr, depth)`` requests.

        Hands the L1 the whole trigger, with the depth cap's NoC reading
        (None without a cap), in one :meth:`UnifiedL1Cache.prefetch_trigger`
        call, which coalesces each request, votes the throttle per request
        and emits the issue telemetry.  The table search pipeline delays
        the requests by ``prefetcher_latency`` cycles (§5.5 reports 2).
        """
        now = self.now
        self.l1.prefetch_trigger(
            requests, instr.thread_stride, instr.size_bytes, instr.pc, now,
            now + self._prefetcher_latency, self.throttle, utilization,
        )

    # ------------------------------------------------------------------
    # Barriers

    def _arrive_barrier(self, warp: WarpState) -> None:
        cta = warp.cta_id
        waiting = self._barrier_waits.get(cta, 0) + 1
        live = self._cta_live_warps[cta]
        if waiting >= live:
            # Last arrival releases everyone.
            self._barrier_waits[cta] = 0
            for other in self._warps:
                if other.cta_id == cta and other.at_barrier:
                    other.at_barrier = False
                    # Parked warps always have waiting_on_memory False (set
                    # at arrival), so re-joining the active set re-counts
                    # them on the non-memory side.
                    self._active_non_mem += 1
                    other.ready_at = self.now + 1
                    self._complete(other)
                    if not other.finished:
                        seq = self._wake_seq
                        self._wake_seq = seq + 1
                        heappush(self._wake, (other.ready_at, seq, other))
            self._complete(warp)
            warp.ready_at = self.now + 1
        else:
            self._barrier_waits[cta] = waiting
            warp.at_barrier = True
            # Parking removes the warp from the active set (and from the
            # wake heap: the issue loop never re-pushes a parked warp).
            if warp.waiting_on_memory:
                warp.waiting_on_memory = False
            else:
                self._active_non_mem -= 1
