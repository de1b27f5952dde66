"""Unified L1 controller: demand path, prefetch path, storage disciplines."""

import pytest

from repro.gpusim.config import CacheConfig, DRAMTimings, GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache
from repro.gpusim.stats import SimStats
from repro.gpusim.unified_cache import L1Outcome, StorageMode, UnifiedL1Cache

from .l1_issue import prefetch_line


def make_l1(mode=StorageMode.COUPLED, mshr=8, merge=2, queue=4, assoc=4,
            size=2048):
    config = GPUConfig.scaled().with_(
        l1=CacheConfig(size_bytes=size, assoc=assoc, line_bytes=128, latency=28),
        mshr_entries=mshr,
        mshr_merge=merge,
        miss_queue_depth=queue,
    )
    dram = DRAM(DRAMTimings(), 2, 4, 2048, 0.5, 128)
    l2 = L2Cache(config.l2, banks=4, dram=dram)
    stats = SimStats()
    l1 = UnifiedL1Cache(
        config,
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        l2,
        stats,
        mode=mode,
    )
    return l1, stats


def fill_line(l1, line, now=0):
    """Demand-miss a line and commit its fill."""
    outcome, ready = l1.demand_load(line, now)
    assert outcome is L1Outcome.MISS
    l1.demand_load(line, ready + 1)  # commits the fill, then hits
    return ready + 1


class TestDemandPath:
    def test_cold_miss(self):
        l1, stats = make_l1()
        outcome, ready = l1.demand_load(0, now=0)
        assert outcome is L1Outcome.MISS
        assert ready > 0
        assert stats.l1_misses == 1

    def test_hit_after_fill(self):
        l1, stats = make_l1()
        t = fill_line(l1, 0)
        assert stats.l1_hits == 1
        outcome, ready = l1.demand_load(0, t + 1)
        assert outcome is L1Outcome.HIT
        assert ready == t + 1 + l1.config.l1.latency

    def test_reserved_merge_on_inflight(self):
        l1, stats = make_l1()
        _, fill = l1.demand_load(0, 0)
        outcome, ready = l1.demand_load(0, 1)
        assert outcome is L1Outcome.RESERVED
        assert ready >= fill - 1
        assert stats.l1_reserved == 1

    def test_merge_width_exhaustion_fails(self):
        l1, stats = make_l1(merge=2)
        l1.demand_load(0, 0)
        l1.demand_load(0, 1)  # merge 2/2
        outcome, retry = l1.demand_load(0, 2)
        assert outcome is L1Outcome.RESERVATION_FAIL
        assert retry == 2 + l1.config.replay_interval
        assert stats.l1_reservation_fails == 1

    def test_mshr_full_fails(self):
        l1, stats = make_l1(mshr=2, queue=100)
        l1.demand_load(0, 0)
        l1.demand_load(128, 0)
        outcome, _ = l1.demand_load(256, 0)
        assert outcome is L1Outcome.RESERVATION_FAIL

    def test_miss_queue_full_fails(self):
        l1, stats = make_l1(mshr=100, queue=1)
        l1.demand_load(0, 0)
        outcome, _ = l1.demand_load(128, 0)
        assert outcome is L1Outcome.RESERVATION_FAIL

    def test_store_is_write_through(self):
        l1, stats = make_l1()
        done = l1.demand_store(0, now=0)
        assert done == 1
        assert stats.icnt_bytes > 0
        # no-allocate: a later load still misses
        outcome, _ = l1.demand_load(0, 5)
        assert outcome is L1Outcome.MISS


class TestPrefetchPath:
    def test_prefetch_fills_and_demand_hits_timely(self):
        l1, stats = make_l1()
        assert prefetch_line(l1, 0, now=0)
        outcome, _ = l1.demand_load(0, now=2000)
        assert outcome is L1Outcome.HIT
        assert stats.prefetch.demand_covered == 1
        assert stats.prefetch.demand_timely == 1

    def test_late_prefetch_covered_not_timely(self):
        l1, stats = make_l1()
        prefetch_line(l1, 0, now=0)
        outcome, _ = l1.demand_load(0, now=1)  # still in flight
        assert outcome is L1Outcome.RESERVED
        assert stats.prefetch.demand_covered == 1
        assert stats.prefetch.demand_timely == 0

    def test_duplicate_prefetch_dropped_and_marks_prediction(self):
        l1, stats = make_l1()
        t = fill_line(l1, 0)
        assert not prefetch_line(l1, 0, now=t)
        assert stats.prefetch.dropped_duplicate == 1
        outcome, _ = l1.demand_load(0, t + 1)
        assert outcome is L1Outcome.HIT
        assert stats.prefetch.demand_covered == 1

    def test_prediction_credited_once(self):
        l1, stats = make_l1()
        t = fill_line(l1, 0)
        prefetch_line(l1, 0, now=t)
        l1.demand_load(0, t + 1)
        l1.demand_load(0, t + 2)
        assert stats.prefetch.demand_covered == 1

    def test_prefetch_respects_mshr_headroom(self):
        l1, stats = make_l1(mshr=4, queue=100)
        for i in range(3):
            l1.demand_load(i * 128, 0)
        # 3 of 4 entries used; the cap is 3 -> prefetch must yield
        assert not prefetch_line(l1, 1024, now=0)
        assert stats.prefetch.dropped_throttled == 1

    def test_magic_prefetch_is_instant_and_free(self):
        l1, stats = make_l1()
        l1.magic_prefetch(0)
        outcome, _ = l1.demand_load(0, now=0)
        assert outcome is L1Outcome.HIT
        assert stats.prefetch.demand_timely == 1
        assert stats.icnt_bytes == 0


class TestDecoupled:
    def test_prefetch_flag_flips_on_use(self):
        l1, _ = make_l1(mode=StorageMode.DECOUPLED)
        prefetch_line(l1, 0, now=0)
        l1.demand_load(0, now=2000)
        state = l1.store.lookup(0)
        assert state is not None
        assert not state.is_prefetch and state.transferred

    def test_untrained_demand_confined_to_half(self):
        l1, _ = make_l1(mode=StorageMode.DECOUPLED, assoc=4, size=512)
        l1.prefetcher_trained = False
        set_lines = []
        addr = 0
        target = l1.store.set_index(0)
        while len(set_lines) < 6:
            if l1.store.set_index(addr) == target:
                set_lines.append(addr)
            addr += 128
        now = 0
        for line in set_lines[:4]:
            now = fill_line(l1, line, now) + 10
        demand = [l for l in l1.store.lines_in_set(target) if not l.is_prefetch]
        assert len(demand) <= 2  # half of 4 ways

    def test_unused_prefetch_eviction_counted(self):
        l1, stats = make_l1(mode=StorageMode.DECOUPLED, assoc=2, size=256,
                            mshr=64, queue=64)
        target = l1.store.set_index(0)
        same_set = []
        addr = 0
        while len(same_set) < 8:
            if l1.store.set_index(addr) == target:
                same_set.append(addr)
            addr += 128
        now = 0
        for line in same_set:
            prefetch_line(l1, line, now)
            now += 4000  # let each fill land; grace expires between fills
        l1.free_space_fraction(now + 100_000)
        assert stats.prefetch.unused_evicted > 0


class TestIsolated:
    def test_prefetch_goes_to_side_buffer(self):
        l1, _ = make_l1(mode=StorageMode.ISOLATED)
        prefetch_line(l1, 0, now=0)
        l1.free_space_fraction(10_000)  # commit fills
        assert l1.side_buffer.lookup(0) is not None
        assert l1.store.lookup(0) is None

    def test_demand_hits_side_buffer(self):
        l1, stats = make_l1(mode=StorageMode.ISOLATED)
        prefetch_line(l1, 0, now=0)
        outcome, _ = l1.demand_load(0, now=10_000)
        assert outcome is L1Outcome.HIT
        assert stats.prefetch.demand_timely == 1

    def test_free_space_measures_side_buffer(self):
        l1, _ = make_l1(mode=StorageMode.ISOLATED)
        assert l1.free_space_fraction(0) == 1.0
        prefetch_line(l1, 0, now=0)
        assert l1.free_space_fraction(10_000) < 1.0


class TestIntrospection:
    def test_free_space_fraction_decreases(self):
        l1, _ = make_l1()
        before = l1.free_space_fraction(0)
        fill_line(l1, 0)
        assert l1.free_space_fraction(10_000) < before

    def test_unused_prefetch_fraction(self):
        l1, _ = make_l1()
        assert l1.unused_prefetch_fraction(0) == 0.0
        prefetch_line(l1, 0, now=0)
        assert l1.unused_prefetch_fraction(10_000) > 0.0
