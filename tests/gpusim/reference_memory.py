"""Reference for the memory side: the original bodies of the L1 miss and
fill path, the NoC port, the L2 and DRAM.

The production classes compute bank, channel and row inline from
geometry read once at construction, skip the sector bookkeeping when the
L1 is not sectored, replace the miss-queue expiry loop with a length
check, hash an L1 fill's set index once, and pick the LRU victim inline.
The subclasses below keep the shapes they must match exactly: each helper
(``_bank_of``, ``_map``, ``_miss_queue_full``, ``set_is_full``,
``lru_victim``, ``_decay_transfer_counters``) is called where it was,
``max`` / ``math.ceil`` do the arithmetic, and every config field is read
where it is used.

``ReferenceL1`` builds its tag stores and MSHR file from the reference
classes, so a reference stack (see ``build_stack`` in
``test_memory_reference.py``) runs no production body this module
replaces.  Nothing in production uses these classes.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

from repro.gpusim.cache import LineState, MSHR, MSHREntry, SetAssocCache
from repro.gpusim.dram import DRAM, _BankState
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache, _BANK_SERVICE_CYCLES
from repro.gpusim.unified_cache import (
    L1Outcome,
    UnifiedL1Cache,
    _DECOUPLED,
    _HIT,
    _MISS,
    _REQUEST_BYTES,
    _RESERVATION_FAIL,
    _RESERVED,
)
from repro.obs.events import (
    DramRowActivateEvent,
    L2AccessEvent,
    PrefetchUseEvent,
)


class ReferenceInterconnect(Interconnect):
    def send(self, now: int, nbytes: int, priority: bool = False) -> int:
        if nbytes < 1:
            raise ValueError("transfer must carry at least one byte")
        busy = math.ceil(nbytes / self.bytes_per_cycle)
        if priority:
            start = max(now, self.priority_next_free)
            self.priority_next_free = start + busy
            self.next_free = max(self.next_free, start + busy)
        else:
            start = max(now, self.next_free)
            self.next_free = start + busy
            self.priority_next_free = max(self.priority_next_free, now)
        self.bytes_transferred += nbytes
        self._recent.append((start, nbytes))
        self._recent_bytes += nbytes
        return start + busy + self.latency


class ReferenceSetAssocCache(SetAssocCache):
    def set_is_full(self, set_idx: int) -> bool:
        return len(self._sets[set_idx]) >= self.config.assoc

    def lru_victim(self, set_idx: int) -> Optional[LineState]:
        cache_set = self._sets[set_idx]
        if not cache_set:
            return None
        return next(iter(cache_set.values()))

    def insert(
        self,
        line_addr: int,
        now: int,
        is_prefetch: bool = False,
        victim: Optional[LineState] = None,
    ) -> Optional[LineState]:
        set_idx = self.set_index(line_addr)
        cache_set = self._sets[set_idx]
        if line_addr in cache_set:
            state = cache_set[line_addr]
            cache_set.move_to_end(line_addr)
            state.last_use = now
            return None
        evicted = None
        if len(cache_set) >= self.config.assoc:
            if victim is None:
                victim = self.lru_victim(set_idx)
            assert victim is not None
            evicted = cache_set.pop(victim.addr)
            del self._flat[victim.addr]
            self._occupancy -= 1
            if evicted.is_prefetch and not evicted.used:
                self._prefetch_unused -= 1
        state = LineState(
            addr=line_addr, inserted_at=now, last_use=now,
            is_prefetch=is_prefetch, home=cache_set,
        )
        cache_set[line_addr] = state
        self._flat[line_addr] = state
        self._occupancy += 1
        if is_prefetch:
            self._prefetch_unused += 1
        return evicted


class ReferenceMSHR(MSHR):
    def allocate(
        self, line_addr: int, fill_time: int, is_prefetch: bool = False
    ) -> MSHREntry:
        if self.full:
            raise RuntimeError("MSHR allocate on full file")
        if line_addr in self._inflight:
            raise RuntimeError("MSHR double allocate for line %#x" % line_addr)
        entry = MSHREntry(
            line_addr=line_addr,
            fill_time=fill_time,
            is_prefetch=is_prefetch,
            seq=self.allocated,
        )
        self._inflight[line_addr] = entry
        heapq.heappush(self._fill_heap, (fill_time, line_addr))
        self.allocated += 1
        return entry

    def pop_filled(self, now: int) -> List[MSHREntry]:
        heap = self._fill_heap
        if not heap or heap[0][0] > now:
            return []
        filled: List[MSHREntry] = []
        while heap and heap[0][0] <= now:
            _, line_addr = heapq.heappop(heap)
            entry = self._inflight.get(line_addr)
            if entry is not None and entry.fill_time <= now:
                del self._inflight[line_addr]
                filled.append(entry)
        self.released += len(filled)
        if len(filled) > 1:
            filled.sort(key=lambda e: e.seq)
        return filled


class ReferenceDRAM(DRAM):
    def _map(self, line_addr: int) -> Tuple[int, int, _BankState, int]:
        line_no = line_addr // self.line_bytes
        ch_idx = line_no % len(self._channels)
        channel = self._channels[ch_idx]
        bank_no = (line_no // len(self._channels)) % len(channel.banks)
        row = line_addr // (self.row_bytes * len(self._channels))
        return ch_idx, bank_no, channel.banks[bank_no], row

    def access(
        self, line_addr: int, now: int, is_write: bool = False,
        priority: bool = True,
    ) -> int:
        ch_idx, bank_no, bank, row = self._map(line_addr)
        channel = self._channels[ch_idx]
        if priority:
            start = max(now, bank.priority_next_free, channel.priority_next_free)
        else:
            start = max(now, bank.next_free, channel.next_free)

        if bank.open_row == row:
            self.row_hits += 1
            done_offset, busy_offset = self._hit_offsets[is_write]
        else:
            self.row_misses += 1
            reference = (
                bank.last_priority_activate if priority else bank.last_activate
            )
            start = max(start, reference + self._t_rc)
            bank.last_activate = max(bank.last_activate, start)
            if priority:
                bank.last_priority_activate = max(
                    bank.last_priority_activate, start
                )
            bank.open_row = row
            if self._obs.enabled:
                self._obs.emit(
                    DramRowActivateEvent(
                        cycle=start, sm_id=-1, channel=ch_idx, bank=bank_no,
                        row=row,
                    )
                )
            done_offset, busy_offset = self._miss_offsets[is_write]

        done = start + done_offset
        bank_busy_until = start + busy_offset
        channel_busy_until = start + self._burst
        bank.next_free = max(bank.next_free, bank_busy_until)
        channel.next_free = max(channel.next_free, channel_busy_until)
        if priority:
            bank.priority_next_free = max(bank.priority_next_free, bank_busy_until)
            channel.priority_next_free = max(
                channel.priority_next_free, channel_busy_until
            )
        self.reads += 0 if is_write else 1
        if self._faults is not None:
            done += self._faults.delay("dram.latency_spike", now)
        return done


class ReferenceL2(L2Cache):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = ReferenceSetAssocCache(self.config)

    def _bank_of(self, line_addr: int) -> int:
        return (line_addr // self.config.line_bytes) % len(self._bank_next_free)

    def access(
        self, line_addr: int, now: int, is_write: bool = False,
        priority: bool = True,
    ) -> int:
        bank = self._bank_of(line_addr)
        spike = 0
        if self._faults is not None:
            spike = self._faults.delay("l2.latency_spike", now)
        if priority:
            start = max(now, self._bank_priority_next_free[bank])
            self._bank_priority_next_free[bank] = start + _BANK_SERVICE_CYCLES
        else:
            start = max(now, self._bank_next_free[bank])
        self._bank_next_free[bank] = max(
            self._bank_next_free[bank], start + _BANK_SERVICE_CYCLES
        )

        heap = self._inflight_heap
        while heap and heap[0][0] <= now:
            _, addr = heapq.heappop(heap)
            t = self._inflight.get(addr)
            if t is not None and t <= now:
                del self._inflight[addr]

        if self._store.touch(line_addr, start) is not None:
            self.hits += 1
            if self._obs.enabled:
                self._obs.emit(
                    L2AccessEvent(
                        cycle=now, sm_id=-1, line_addr=line_addr, hit=True
                    )
                )
            return start + self.config.latency + spike

        pending = self._inflight.get(line_addr)
        if pending is not None and self._obs.enabled:
            self._obs.emit(
                L2AccessEvent(cycle=now, sm_id=-1, line_addr=line_addr, hit=True)
            )
        if pending is not None:
            self.hits += 1
            merged = max(pending, start + self.config.latency)
            if priority:
                promoted = start + self.config.latency + _BANK_SERVICE_CYCLES
                merged = min(merged, max(promoted, now + self.config.latency))
            return merged + spike

        self.misses += 1
        if self._obs.enabled:
            self._obs.emit(
                L2AccessEvent(cycle=now, sm_id=-1, line_addr=line_addr, hit=False)
            )
        fill_time = self.dram.access(
            line_addr, start + _BANK_SERVICE_CYCLES, is_write=is_write,
            priority=priority,
        )
        self._store.insert(line_addr, fill_time)
        self._inflight[line_addr] = fill_time
        heapq.heappush(self._inflight_heap, (fill_time, line_addr))
        return fill_time + self.config.latency + spike


class ReferenceL1(UnifiedL1Cache):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = ReferenceSetAssocCache(self.config.l1)
        if self._side_buffer is not None:
            self._side_buffer = ReferenceSetAssocCache(self._side_buffer.config)
        self._pf_store = (
            self._side_buffer if self._side_buffer is not None else self._store
        )
        self._mshr = ReferenceMSHR(self.config.mshr_entries, self.config.mshr_merge)

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def _miss_queue_full(self, now: int) -> bool:
        while self._miss_queue and self._miss_queue[0] <= now:
            self._miss_queue.popleft()
        return len(self._miss_queue) >= self.config.miss_queue_depth

    def _send_to_l2(
        self,
        line_addr: int,
        now: int,
        is_write: bool,
        is_prefetch: bool = False,
        nbytes: Optional[int] = None,
    ) -> int:
        priority = not is_prefetch
        request_arrival = self._icnt_req.send(
            now, _REQUEST_BYTES, priority=priority
        )
        self._miss_queue.append(self._icnt_req.next_free)
        self.stats.icnt_bytes += _REQUEST_BYTES
        l2_ready = self._l2.access(
            line_addr, request_arrival, is_write=is_write, priority=priority
        )
        fill_bytes = nbytes if nbytes is not None else self.line_bytes
        fill_time = self._icnt_resp.send(l2_ready, fill_bytes, priority=priority)
        self.stats.icnt_bytes += fill_bytes
        if is_prefetch and self._faults is not None:
            fill_time += self._faults.delay("icnt.delay_fill", now, self._sm_id)
        return fill_time

    def _install(
        self, line_addr: int, now: int, is_prefetch: bool, sectors: int = -1
    ) -> None:
        if is_prefetch and self._side_buffer is not None:
            self._side_buffer.insert(line_addr, now, is_prefetch=True)
            self._prefetch_inserted += 1
            return

        store = self._store
        assert isinstance(store, ReferenceSetAssocCache)
        set_idx = store.set_index(line_addr)
        victim: Optional[LineState] = None

        if self.mode is _DECOUPLED:
            if store.set_is_full(set_idx):
                victim = self._decoupled_victim(set_idx, now, is_prefetch)
            elif not is_prefetch and (
                not self.prefetcher_trained or now < self.throttled_until
            ):
                half = max(1, self.config.l1.assoc // 2)
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

        evicted = store.insert(line_addr, now, is_prefetch=is_prefetch, victim=victim)
        if self._sector_bytes:
            line = store.lookup(line_addr)
            if line is not None and line.sectors_valid != -1:
                line.sectors_valid |= sectors if sectors != -1 else -1
            elif line is not None:
                line.sectors_valid = sectors
        self._decay_transfer_counters()
        if is_prefetch:
            self._prefetch_inserted += 1
        if evicted is not None and evicted.is_prefetch and not evicted.used:
            self.stats.prefetch.unused_evicted += 1
            if not is_prefetch:
                self.stats.prefetch.early_evictions += 1

    def _decay_transfer_counters(self) -> None:
        if self._prefetch_inserted >= 256:
            self._prefetch_inserted //= 2
            self._prefetch_transferred //= 2

    def demand_load(
        self, line_addr: int, now: int, sector_mask: int = -1
    ) -> Tuple[L1Outcome, int]:
        self._commit_fills(now)

        if line_addr in self._magic_lines:
            self.stats.l1_hits += 1
            self.stats.prefetch.demand_covered += 1
            self.stats.prefetch.demand_timely += 1
            return _HIT, now + self._l1_latency

        state = self._store.touch(line_addr, now)
        if state is not None and not self._sectors_present(state, sector_mask):
            state = None
        if state is not None:
            self.stats.l1_hits += 1
            if state.is_prefetch or state.predicted:
                self.stats.prefetch.demand_covered += 1
                self.stats.prefetch.demand_timely += 1
                state.predicted = False
            if state.is_prefetch:
                state.is_prefetch = False
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

        inflight = self._mshr.lookup(line_addr)
        if inflight is not None:
            merged = self._mshr.try_merge(line_addr, is_demand=True)
            if merged is None:
                self.stats.l1_reservation_fails += 1
                return (
                    _RESERVATION_FAIL,
                    now + self._replay_interval,
                )
            self.stats.l1_reserved += 1
            if merged.is_prefetch or merged.predicted:
                self.stats.prefetch.demand_covered += 1
                merged.predicted = False
            if merged.is_prefetch:
                promoted = now + self._unloaded_round_trip()
                self._mshr.reschedule(merged, promoted)
            return _RESERVED, merged.fill_time + 1

        if (
            self._mshr.full
            or self._miss_queue_full(now)
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
            line_addr, now, is_write=False, nbytes=self._fetch_bytes(sector_mask)
        )
        entry = self._mshr.allocate(line_addr, fill_time, is_prefetch=False)
        entry.sectors = sector_mask if self._sector_bytes else -1
        return _MISS, fill_time + 1

    def _sectors_present(self, state: LineState, sector_mask: int) -> bool:
        if not self._sector_bytes or sector_mask == -1:
            return True
        if state.sectors_valid == -1:
            return True
        return (state.sectors_valid & sector_mask) == sector_mask

    def _fetch_bytes(self, sector_mask: int) -> Optional[int]:
        sector = self._sector_bytes
        if not sector or sector_mask == -1:
            return None
        return max(sector, (sector_mask & ((1 << 64) - 1)).bit_count() * sector)
