"""Unified L1 data cache controller.

This is the per-SM memory front end: tag store + MSHR + miss queue, the
interconnect/L2 path for misses, and the three storage disciplines the paper
compares:

* ``coupled`` — baseline: prefetched lines share the L1 with demand data
  (Snake-DT and the decoupling-less competitors).
* ``decoupled`` — Snake's scheme (§3.2): prefetch and demand lines live in
  the same unified SRAM but are distinguished by a flag; a prefetch-space hit
  "transfers" the line by flipping the flag; a fill into a full set evicts
  one LRU line, from the demand side while more than 80 % of prefetched lines
  were transferred and from the prefetch side otherwise; while the prefetcher
  is untrained or throttled, demand data may claim at most 50 % of the ways.
* ``isolated`` — Isolated-Snake (§5.7): prefetched lines go to a dedicated
  side buffer and never contend with demand data.

Outcomes follow §2 footnote 1: HIT, MISS, RESERVED (merged into an in-flight
miss) and RESERVATION_FAIL (no MSHR/miss-queue resources — the access will be
replayed).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import (
    TYPE_CHECKING, Deque, Optional, Sequence, Set, Tuple, Union,
)

from repro.obs.events import (
    BusLike,
    NULL_BUS,
    PrefetchDropEvent,
    PrefetchFillEvent,
    PrefetchIssueEvent,
    PrefetchUseEvent,
    ThrottleEvent,
)

from .cache import LineState, MSHR, MSHREntry, SetAssocCache
from .coalescer import line_offsets
from .config import CacheConfig, GPUConfig
from .faults import FaultInjector
from .interconnect import Interconnect
from .l2 import L2Cache
from .stats import SimStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> gpusim)
    from repro.core.throttle import Throttle

_REQUEST_BYTES = 8  # read-request / write-through packet header


class L1Outcome(enum.Enum):
    HIT = "hit"
    MISS = "miss"
    RESERVED = "reserved"
    RESERVATION_FAIL = "reservation_fail"


class StorageMode(enum.Enum):
    COUPLED = "coupled"
    DECOUPLED = "decoupled"
    ISOLATED = "isolated"


# The demand path and fills read members through module aliases (one dict
# lookup instead of an enum class-attribute read per access).
_HIT = L1Outcome.HIT
_MISS = L1Outcome.MISS
_RESERVED = L1Outcome.RESERVED
_RESERVATION_FAIL = L1Outcome.RESERVATION_FAIL
_DECOUPLED = StorageMode.DECOUPLED


class UnifiedL1Cache:
    """Per-SM L1 data cache with a prefetch-aware storage policy."""

    def __init__(
        self,
        config: GPUConfig,
        icnt_req: Interconnect,
        icnt_resp: Interconnect,
        l2: L2Cache,
        stats: SimStats,
        mode: StorageMode = StorageMode.COUPLED,
        obs: Optional[BusLike] = None,
        sm_id: int = -1,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.mode = mode
        self._obs = obs if obs is not None else NULL_BUS
        self._sm_id = sm_id
        # Optional chaos hook (repro.gpusim.faults.FaultInjector).  Every
        # use is None-guarded: without a fault plan the cache pays one
        # attribute test per injection site and nothing more.
        self._faults = faults
        self._store = SetAssocCache(config.l1)
        self._mshr = MSHR(config.mshr_entries, config.mshr_merge)
        self._miss_queue: Deque[int] = deque()  # icnt-acceptance times
        self._icnt_req = icnt_req
        self._icnt_resp = icnt_resp
        self._l2 = l2
        self.stats = stats
        # Hot-path scalars hoisted out of the frozen config (attribute-chain
        # reads on every demand access otherwise).
        self._l1_latency = config.l1.latency
        self._replay_interval = config.replay_interval
        self._sector_bytes = config.l1_sector_bytes
        self._line_bytes = config.l1.line_bytes
        self._assoc = config.l1.assoc
        self._mshr_entries = config.mshr_entries
        self._miss_queue_depth = config.miss_queue_depth
        # Leave headroom for demand misses: prefetches may not take the last
        # quarter of the MSHR nor the last miss-queue slot.
        self._pf_mshr_cap = max(1, (config.mshr_entries * 3) // 4)
        self._pf_queue_cap = max(1, config.miss_queue_depth - 1)

        if mode is StorageMode.ISOLATED:
            side = CacheConfig(
                size_bytes=config.l1.size_bytes // 2,
                assoc=max(1, config.l1.assoc // 2),
                line_bytes=config.l1.line_bytes,
                latency=config.l1.latency,
            )
            self._side_buffer: Optional[SetAssocCache] = SetAssocCache(side)
        else:
            self._side_buffer = None

        # The space the throttle triggers watch (side buffer when isolated,
        # the unified store otherwise) and its size — resolved once; both
        # fractions are polled on every prefetch decision.
        self._pf_store = (
            self._side_buffer if self._side_buffer is not None else self._store
        )
        self._pf_capacity = self._pf_store.config.num_lines

        # Ideal-prefetcher magic storage: infinite, zero-latency.
        self._magic_lines: Set[int] = set()

        # Decoupling state.  The transfer counters decay so the 80 % rule
        # tracks *recent* prefetch usefulness rather than all of history.
        self.prefetcher_trained = False
        self.throttled_until = -1
        self._prefetch_inserted = 0
        self._prefetch_transferred = 0

    # ------------------------------------------------------------------
    # Plumbing

    @property
    def line_bytes(self) -> int:
        return self.config.l1.line_bytes

    def _commit_fills(self, now: int) -> None:
        # Hot-path early exit: on most calls nothing has filled and the
        # miss queue head is still in the future, so answer without the
        # pop_filled round trip (the heap head is an exact lower bound).
        heap = self._mshr._fill_heap
        queue = self._miss_queue
        if (not heap or heap[0][0] > now) and (not queue or queue[0] > now):
            return
        for entry in self._mshr.pop_filled(now):
            if entry.dropped and not entry.demand_joined:
                # Chaos icnt.drop_fill: the best-effort fill packet was lost.
                # The MSHR entry still retires exactly once (conservation),
                # but no line lands — a lost prefetch opportunity, nothing
                # more.  A demand-joined entry is never dropped: the merge
                # promoted the packet to the demand channel.
                continue
            resident = self._store.lookup(entry.line_addr)
            if resident is not None and self._sector_bytes:
                # sector fill into an already-resident line
                if entry.sectors == -1 or resident.sectors_valid == -1:
                    resident.sectors_valid = -1
                else:
                    resident.sectors_valid |= entry.sectors
            if entry.is_prefetch and self._obs.enabled:
                self._obs.emit(
                    PrefetchFillEvent(
                        cycle=entry.fill_time,
                        sm_id=self._sm_id,
                        line_addr=entry.line_addr,
                        demand_joined=entry.demand_joined,
                    )
                )
            joined = entry.is_prefetch and entry.demand_joined
            if joined:
                # The prediction was right but late: a demand merged while
                # the line was in flight.  It lands as demand data and counts
                # as a successful transfer for the 80 % rule.
                self._prefetch_inserted += 1
                self._prefetch_transferred += 1
            self._install(
                entry.line_addr, entry.fill_time,
                entry.is_prefetch and not joined, sectors=entry.sectors,
            )
        while self._miss_queue and self._miss_queue[0] <= now:
            self._miss_queue.popleft()

    def _send_to_l2(
        self,
        line_addr: int,
        now: int,
        is_write: bool,
        is_prefetch: bool = False,
        nbytes: Optional[int] = None,
    ) -> int:
        """Push a request out and return the fill time of the response.

        Demand traffic rides the priority virtual channel; prefetch traffic
        is best-effort and yields to it (§3.3's premise that prefetching
        must not slow demand responses down).
        """
        priority = not is_prefetch
        icnt_req = self._icnt_req
        request_arrival = icnt_req.send(now, _REQUEST_BYTES, priority)
        # The miss-queue entry drains when the NoC accepts the request.
        self._miss_queue.append(icnt_req.next_free)
        l2_ready = self._l2.access(line_addr, request_arrival, is_write, priority)
        if nbytes is None:
            nbytes = self._line_bytes
        fill_time = self._icnt_resp.send(l2_ready, nbytes, priority)
        self.stats.icnt_bytes += _REQUEST_BYTES + nbytes
        if is_prefetch and self._faults is not None:
            # Chaos icnt.delay_fill: the best-effort fill dawdles in the NoC.
            fill_time += self._faults.delay("icnt.delay_fill", now, self._sm_id)
        return fill_time

    # ------------------------------------------------------------------
    # Storage policy

    def _transfer_ratio(self) -> float:
        """Recent fraction of prefetched lines claimed by demand.  Starts
        optimistic (1.0) so the decoupled policy protects prefetched data
        until there is actual evidence of misbehaviour — otherwise the 80 %
        rule can never bootstrap (no protection -> no transfers -> no
        protection)."""
        if self._prefetch_inserted < 16:
            return 1.0
        return self._prefetch_transferred / self._prefetch_inserted

    def _evict_line(self, line: LineState) -> None:
        self._store.evict(line.addr)
        if line.is_prefetch and not line.used:
            self.stats.prefetch.unused_evicted += 1

    def _install(
        self, line_addr: int, now: int, is_prefetch: bool, sectors: int = -1
    ) -> None:
        """Insert a filled line per the active storage mode."""
        if is_prefetch and self._side_buffer is not None:
            self._side_buffer.insert(line_addr, now, is_prefetch=True)
            self._prefetch_inserted += 1
            return

        store = self._store
        set_idx = store.set_index(line_addr)
        victim: Optional[LineState] = None

        if self.mode is _DECOUPLED:
            if len(store._sets[set_idx]) >= self._assoc:
                victim = self._decoupled_victim(set_idx, now, is_prefetch)
            elif not is_prefetch and (
                not self.prefetcher_trained or now < self.throttled_until
            ):
                # Training/throttle confinement applies even before the set
                # fills: demand data may claim at most half the ways, the
                # rest being reserved for prefetched data (§3.2).  The set
                # is not full, so the tag store will not evict on insert —
                # recycle the demand-side LRU line explicitly.
                half = max(1, self._assoc // 2)
                oldest: Optional[LineState] = None
                held = 0
                for line in store._sets[set_idx].values():  # LRU order
                    if not line.is_prefetch:
                        if oldest is None:
                            oldest = line
                        held += 1
                        if held >= half:
                            self._evict_line(oldest)
                            break

        evicted = store.insert(line_addr, now, is_prefetch, victim, set_idx)
        if self._sector_bytes:
            line = store.lookup(line_addr)
            if line is not None and line.sectors_valid != -1:
                line.sectors_valid |= sectors if sectors != -1 else -1
            elif line is not None:
                line.sectors_valid = sectors
        # Halve the transfer-ratio counters periodically so the 80 % rule
        # follows the prefetcher's recent behaviour.
        if self._prefetch_inserted >= 256:
            self._prefetch_inserted //= 2
            self._prefetch_transferred //= 2
        if is_prefetch:
            self._prefetch_inserted += 1
        if evicted is not None and evicted.is_prefetch and not evicted.used:
            self.stats.prefetch.unused_evicted += 1
            if not is_prefetch:
                # a demand fill displaced a never-used prefetched line
                self.stats.prefetch.early_evictions += 1

    def _decoupled_victim(
        self, set_idx: int, now: int, inserting_prefetch: bool
    ) -> LineState:
        """Single-victim choice for a fill into a full set (§3.2).

        The 80 %-transfer rule decides which side yields: when prefetching
        is behaving (most prefetched lines get claimed by demand), the
        demand side gives up its LRU line; otherwise stale prefetched lines
        are recycled.  While the prefetcher is untrained or the throttle has
        confined the demand side, demand fills recycle their own LRU once
        they hold half the ways.  One LRU-order walk finds each side's LRU
        line and counts demand lines up to the bound it needs."""
        confined = not inserting_prefetch and (
            not self.prefetcher_trained or now < self.throttled_until
        )
        need = max(1, self.config.l1.assoc // 2) if confined else 1
        prefetch_lru: Optional[LineState] = None
        demand_lru: Optional[LineState] = None
        held = 0
        for line in self._store._sets[set_idx].values():  # LRU order
            if line.is_prefetch:
                if prefetch_lru is None:
                    prefetch_lru = line
                    if held >= need:
                        break
            else:
                if demand_lru is None:
                    demand_lru = line
                held += 1
                if held >= need and prefetch_lru is not None:
                    break
        if confined and held >= need:
            assert demand_lru is not None
            return demand_lru

        # Protect prefetched data while it is behaving (80 % rule) or still
        # within its consumption window: the transfer ratio lags fills by a
        # full memory round trip, so a grace age keeps the policy from
        # recycling lines that simply have not had time to be used yet.
        grace = self.config.decouple_grace
        fresh = prefetch_lru is not None and now - prefetch_lru.inserted_at < grace
        if self._transfer_ratio() > 0.80 or fresh:
            victim = demand_lru if demand_lru is not None else prefetch_lru
        else:
            victim = prefetch_lru if prefetch_lru is not None else demand_lru
        assert victim is not None  # the set is full
        return victim

    # ------------------------------------------------------------------
    # Demand path

    def demand_load(
        self, line_addr: int, now: int, sector_mask: int = -1
    ) -> Tuple[L1Outcome, int]:
        """A warp's demand load of one line.  Returns (outcome, ready time).
        On RESERVATION_FAIL the ready time is a retry time.

        With a sectored L1 (``l1_sector_bytes`` > 0) ``sector_mask`` names
        the sectors the warp touches; a resident line missing some of them
        takes the miss path for just those sectors."""
        self._commit_fills(now)

        if line_addr in self._magic_lines:
            self.stats.l1_hits += 1
            self.stats.prefetch.demand_covered += 1
            self.stats.prefetch.demand_timely += 1
            return _HIT, now + self._l1_latency

        sectored = self._sector_bytes
        state = self._store.touch(line_addr, now)
        if (
            state is not None and sectored
            and not self._sectors_present(state, sector_mask)
        ):
            # sector miss: the line is resident but these sectors are not
            state = None
        if state is not None:
            self.stats.l1_hits += 1
            if state.is_prefetch or state.predicted:
                self.stats.prefetch.demand_covered += 1
                self.stats.prefetch.demand_timely += 1
                state.predicted = False  # credit a prediction once
            if state.is_prefetch:
                state.is_prefetch = False  # flag-flip transfer, no data move
                state.transferred = True
                self._prefetch_transferred += 1
                if self._obs.enabled:
                    self._obs.emit(
                        PrefetchUseEvent(
                            cycle=now, sm_id=self._sm_id, line_addr=line_addr
                        )
                    )
            return _HIT, now + self._l1_latency

        if self._side_buffer is not None:
            side = self._side_buffer.touch(line_addr, now)
            if side is not None:
                self.stats.l1_hits += 1
                self.stats.prefetch.demand_covered += 1
                self.stats.prefetch.demand_timely += 1
                if self._obs.enabled:
                    self._obs.emit(
                        PrefetchUseEvent(
                            cycle=now, sm_id=self._sm_id, line_addr=line_addr
                        )
                    )
                return _HIT, now + self._l1_latency

        mshr = self._mshr
        inflight = mshr._inflight
        if line_addr in inflight:
            merged = mshr.try_merge(line_addr, True)
            if merged is None:
                self.stats.l1_reservation_fails += 1
                return (
                    _RESERVATION_FAIL,
                    now + self._replay_interval,
                )
            self.stats.l1_reserved += 1
            if merged.is_prefetch or merged.predicted:
                # Correctly predicted but late: covered, not timely.
                self.stats.prefetch.demand_covered += 1
                merged.predicted = False
            if merged.is_prefetch:
                # The prefetch rides the best-effort virtual channel; once a
                # demand merges, hardware promotes the packet.  Model the
                # promotion analytically: the fill completes no later than a
                # fresh unloaded demand round trip from now (its bandwidth
                # was already reserved on the best-effort channel).
                promoted = now + self._unloaded_round_trip()
                mshr.reschedule(merged, promoted)
            return _RESERVED, merged.fill_time + 1

        # ``_commit_fills(now)`` above drained every miss-queue entry due
        # by ``now``, so the queue's length is its occupancy.
        if (
            len(inflight) >= self._mshr_entries
            or len(self._miss_queue) >= self._miss_queue_depth
            or (
                self._faults is not None
                and self._faults.fires(
                    "l1.mshr_refuse", now, self._sm_id, "demand %#x" % line_addr
                )
            )
        ):
            self.stats.l1_reservation_fails += 1
            return _RESERVATION_FAIL, now + self._replay_interval

        self.stats.l1_misses += 1
        fill_time = self._send_to_l2(
            line_addr, now, False, False,
            self._fetch_bytes(sector_mask) if sectored else None,
        )
        entry = mshr.allocate(line_addr, fill_time, False)
        if sectored:
            entry.sectors = sector_mask
        return _MISS, fill_time + 1

    def _sectors_present(self, state: LineState, sector_mask: int) -> bool:
        """Does the resident line of a sectored L1 hold every requested
        sector?"""
        if sector_mask == -1:
            return True
        if state.sectors_valid == -1:
            return True
        return (state.sectors_valid & sector_mask) == sector_mask

    def _fetch_bytes(self, sector_mask: int) -> Optional[int]:
        """Transfer size for a sectored L1's demand fill (None = whole
        line)."""
        sector = self._sector_bytes
        if sector_mask == -1:
            return None
        return max(sector, (sector_mask & ((1 << 64) - 1)).bit_count() * sector)

    def _unloaded_round_trip(self) -> int:
        """Queue-free demand latency: request hop + L2/DRAM service + the
        response hop and line serialization."""
        line_cycles = math.ceil(self.line_bytes / self._icnt_resp.bytes_per_cycle)
        return (
            self._icnt_req.latency
            + self.config.l2.latency
            + self._icnt_resp.latency
            + line_cycles
        )

    def demand_store(self, line_addr: int, now: int) -> int:
        """Write-through, no-allocate store; returns completion time for the
        warp (stores do not block on the round trip)."""
        self._commit_fills(now)
        state = self._store.touch(line_addr, now)
        if state is not None and state.is_prefetch:
            state.is_prefetch = False
            state.transferred = True
            self._prefetch_transferred += 1
        self._icnt_req.send(now, _REQUEST_BYTES)
        self.stats.icnt_bytes += _REQUEST_BYTES
        return now + 1

    # ------------------------------------------------------------------
    # Prefetch path

    def prefetch_trigger(
        self,
        requests: Sequence[Tuple[int, int]],
        stride: int,
        size_bytes: int,
        pc: int,
        now: int,
        issue_at: int,
        throttle: "Throttle",
        utilization: Optional[float] = None,
    ) -> None:
        """Issue a whole trigger's prefetch requests: the one prefetch
        admission path.

        ``requests`` are the ``(base_addr, depth)`` pairs the load at
        ``pc`` (of ``stride`` and ``size_bytes``) triggered; each expands
        to its :func:`coalesce_lines` vector as the loop reaches it.
        Lines leave for L2 at ``issue_at``.  The first vote uses
        ``utilization``, a NoC reading taken at ``now`` with no ``send``
        since, or reads both ports when it is None.

        The throttle votes per request at ``now``, memoized: ``allow`` is
        a deterministic, repeat-idempotent function of (utilization, L1
        occupancy, prefetch backlog) at a fixed cycle, and those inputs
        only move when a request sends bytes or a fill commits — so once
        the vote is False every remaining request drops, as one ``allow``
        call per request would conclude.  Each line of a passed request
        is then dropped as a duplicate (resident in the tag store or side
        buffer, or in flight), refused for the demand headroom (the last
        quarter of the MSHR, the last miss-queue slot), or sent.  Fills
        commit once, at ``issue_at``, when the first line is reached:
        every send fills and drains after ``issue_at``, so a later commit
        would find nothing due.  The test suite pins counters, events and
        MSHR/NoC state to the naive per-request, per-line loop.

        Events come out in per-request, per-line order: a refused vote
        emits one ``ThrottleEvent`` for each remaining request; otherwise
        each line emits its ``PrefetchDropEvent`` or, once sent, a
        ``PrefetchIssueEvent``.  Fault sites keep their per-line cadence.
        """
        stats_pf = self.stats.prefetch
        pf_store = self._pf_store
        req_util = self._icnt_req.measured_utilization
        resp_util = self._icnt_resp.measured_utilization
        allow = throttle.allow
        obs = self._obs
        observing = obs.enabled
        faults = self._faults
        sm_id = self._sm_id
        warp_size = self.config.warp_size
        line_bytes = self.config.l1.line_bytes
        # Most candidates are duplicates: probe the lookup maps directly.
        store_get = self._store._flat.get
        side = self._side_buffer
        side_get = side._flat.get if side is not None else None
        inflight = self._mshr._inflight
        inflight_get = inflight.get
        miss_queue = self._miss_queue
        mshr_cap = self._pf_mshr_cap
        queue_cap = self._pf_queue_cap
        committed = False
        sent_since_vote = utilization is None
        measured = 0.0 if utilization is None else utilization
        need_vote = True
        last_occ = -1
        last_unused = -1
        for index, (base_addr, depth) in enumerate(requests):
            if sent_since_vote:
                measured = 0.5 * (req_util(now) + resp_util(now))
            elif (
                pf_store._occupancy != last_occ
                or pf_store._prefetch_unused != last_unused
            ):
                need_vote = True  # fills committed: space inputs moved
            if need_vote:
                if not allow(now, self, measured):
                    stats_pf.dropped_throttled += len(requests) - index
                    if observing:
                        reason = (
                            "bandwidth" if getattr(throttle, "bw_halted", False)
                            else "space"
                        )
                        for _ in range(len(requests) - index):
                            obs.emit(ThrottleEvent(
                                cycle=now, sm_id=sm_id, reason=reason,
                                utilization=measured,
                            ))
                    return
                last_occ = pf_store._occupancy
                last_unused = pf_store._prefetch_unused
                need_vote = False
                sent_since_vote = False
            rem = base_addr % line_bytes
            shift = base_addr - rem
            offsets = line_offsets(rem, stride, size_bytes, warp_size, line_bytes)
            if not committed and offsets:
                self._commit_fills(issue_at)
                committed = True
            sent_any = False
            for offset in offsets:
                line_addr = shift + offset
                if faults is not None and faults.should("l1.evict_storm"):
                    self._evict_prefetch_storm(issue_at)
                duplicate: Optional[Union[LineState, MSHREntry]] = (
                    store_get(line_addr)
                )
                if duplicate is None and side_get is not None:
                    duplicate = side_get(line_addr)
                if duplicate is None:
                    duplicate = inflight_get(line_addr)
                if duplicate is not None:
                    # Already cached or in flight: the prediction was
                    # correct — remember it so the demand access counts
                    # toward coverage (the paper's metric counts correctly
                    # predicted addresses, §4).
                    duplicate.predicted = True
                    stats_pf.dropped_duplicate += 1
                    if observing:
                        obs.emit(PrefetchDropEvent(
                            cycle=issue_at, sm_id=sm_id, line_addr=line_addr,
                            reason="duplicate",
                        ))
                    continue
                if len(inflight) >= mshr_cap or len(miss_queue) >= queue_cap:
                    reason = "headroom"
                elif faults is not None and faults.fires(
                    "l1.mshr_refuse", issue_at, sm_id, "prefetch %#x" % line_addr
                ):
                    # Chaos l1.mshr_refuse on the best-effort path: the
                    # prefetch is dropped before issue, so it never reaches
                    # L2 and the cross-layer request conservation stays exact.
                    reason = "fault"
                else:
                    fill_time = self._send_to_l2(line_addr, issue_at, False, True)
                    entry = self._mshr.allocate(line_addr, fill_time, True)
                    if faults is not None and faults.fires(
                        "icnt.drop_fill", issue_at, sm_id, "prefetch %#x" % line_addr
                    ):
                        entry.dropped = True
                    stats_pf.issued += 1
                    sent_any = True
                    if observing:
                        obs.emit(PrefetchIssueEvent(
                            cycle=issue_at, sm_id=sm_id, pc=pc,
                            line_addr=line_addr, depth=depth,
                        ))
                    continue
                stats_pf.dropped_throttled += 1
                if observing:
                    obs.emit(PrefetchDropEvent(
                        cycle=issue_at, sm_id=sm_id, line_addr=line_addr,
                        reason=reason,
                    ))
            if sent_any:
                need_vote = True
                sent_since_vote = True

    def _evict_prefetch_storm(self, now: int) -> None:
        """Chaos l1.evict_storm: flush every still-prefetch-flagged line
        from one random set (plus the matching side-buffer set in isolated
        mode), and record the fault."""
        assert self._faults is not None
        evicted = 0
        set_idx = self._faults.rand_index(self._store.num_sets)
        for line in self._store.lines_in_set(set_idx):
            if line.is_prefetch:
                self._evict_line(line)
                evicted += 1
        if self._side_buffer is not None:
            side_idx = self._faults.rand_index(self._side_buffer.num_sets)
            for line in self._side_buffer.lines_in_set(side_idx):
                if line.is_prefetch:
                    self._side_buffer.evict(line.addr)
                    if not line.used:
                        self.stats.prefetch.unused_evicted += 1
                    evicted += 1
        self._faults.record(
            "l1.evict_storm", now, self._sm_id,
            "evicted %d prefetched lines" % evicted,
        )

    def magic_prefetch(self, line_addr: int) -> None:
        """Ideal-prefetcher fill: infinite storage, zero latency (§1)."""
        self._magic_lines.add(line_addr)

    # ------------------------------------------------------------------
    # Introspection (throttle triggers, tests)

    def free_space_fraction(self, now: int) -> float:
        """Free fraction of the space prefetched data competes for (the
        side buffer in isolated mode, the unified store otherwise)."""
        self._commit_fills(now)
        capacity = self._pf_capacity
        return 1.0 - self._pf_store.occupancy / capacity if capacity else 0.0

    def unused_prefetch_fraction(self, now: int) -> float:
        """Fraction of prefetch-space capacity holding not-yet-used
        prefetched lines — the backlog the space throttle watches."""
        self._commit_fills(now)
        capacity = self._pf_capacity
        if not capacity:
            return 0.0
        return self._pf_store.prefetch_unused / capacity

    @property
    def mshr_occupancy(self) -> int:
        return self._mshr.occupancy

    @property
    def store(self) -> SetAssocCache:
        return self._store

    @property
    def side_buffer(self) -> Optional[SetAssocCache]:
        return self._side_buffer
