"""Focused tests for the decoupled storage policy's finer rules."""

from repro.gpusim.config import CacheConfig, DRAMTimings, GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache
from repro.gpusim.stats import SimStats
from repro.gpusim.unified_cache import StorageMode, UnifiedL1Cache

from .l1_issue import prefetch_line


def make_l1(mode=StorageMode.DECOUPLED, assoc=4, size=512, grace=100):
    config = GPUConfig.scaled().with_(
        l1=CacheConfig(size_bytes=size, assoc=assoc, line_bytes=128, latency=28),
        mshr_entries=64,
        miss_queue_depth=64,
        decouple_grace=grace,
    )
    dram = DRAM(DRAMTimings(), 2, 4, 2048, 0.5, 128)
    l2 = L2Cache(config.l2, banks=4, dram=dram)
    stats = SimStats()
    l1 = UnifiedL1Cache(
        config,
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        l2, stats, mode=mode,
    )
    return l1, stats


def same_set_lines(l1, count, start=0):
    target = l1.store.set_index(start)
    found, addr = [], start
    while len(found) < count:
        if l1.store.set_index(addr) == target:
            found.append(addr)
        addr += 128
    return found


class TestTransferRatio:
    def test_bootstrap_is_optimistic(self):
        l1, _ = make_l1()
        assert l1._transfer_ratio() == 1.0

    def test_ratio_tracks_transfers(self):
        l1, _ = make_l1()
        l1._prefetch_inserted = 100
        l1._prefetch_transferred = 90
        assert l1._transfer_ratio() == 0.9

    def test_decay_halves_counters(self):
        l1, _ = make_l1()
        l1._prefetch_inserted = 256
        l1._prefetch_transferred = 128
        l1._install(0, now=0, is_prefetch=False)  # every fill decays first
        assert l1._prefetch_inserted == 128
        assert l1._prefetch_transferred == 64


class TestGraceWindow:
    def test_young_prefetch_protected_from_demand_fill(self):
        l1, stats = make_l1(grace=1_000_000)
        l1.prefetcher_trained = True
        lines = same_set_lines(l1, 6)
        # one old demand line plus three young prefetched lines fill the set
        l1._install(lines[0], now=0, is_prefetch=False)
        for line in lines[1:4]:
            prefetch_line(l1, line, 10)
        l1.free_space_fraction(50_000)  # commit fills
        # force a low transfer ratio (normally the eviction trigger)
        l1._prefetch_inserted = 100
        l1._prefetch_transferred = 0
        # the demand fill must recycle the demand line, not the young
        # prefetched ones (grace window)
        l1._install(lines[4], now=60_000, is_prefetch=False)
        resident_prefetch = [
            l for l in l1.store.lines_in_set(l1.store.set_index(lines[0]))
            if l.is_prefetch
        ]
        assert len(resident_prefetch) == 3
        assert stats.prefetch.unused_evicted == 0

    def test_stale_prefetch_recycled(self):
        l1, stats = make_l1(grace=10)
        lines = same_set_lines(l1, 6)
        for line in lines[:4]:
            prefetch_line(l1, line, 0)
        l1.free_space_fraction(50_000)
        l1._prefetch_inserted = 100
        l1._prefetch_transferred = 0
        l1._install(lines[4], now=60_000, is_prefetch=False)
        assert stats.prefetch.unused_evicted >= 1


class TestEightyPercentRule:
    def test_behaving_prefetcher_evicts_demand_side(self):
        l1, _ = make_l1(grace=0)
        l1.prefetcher_trained = True
        lines = same_set_lines(l1, 6)
        now = 0
        # two demand lines, two prefetch lines fill the 4-way set
        for line in lines[:2]:
            l1._install(line, now, is_prefetch=False)
        for line in lines[2:4]:
            l1._install(line, now, is_prefetch=True)
        l1._prefetch_inserted = 100
        l1._prefetch_transferred = 95  # > 80%: prefetching behaves
        l1._install(lines[4], now=100, is_prefetch=True)
        set_lines = l1.store.lines_in_set(l1.store.set_index(lines[0]))
        assert sum(1 for l in set_lines if l.is_prefetch) == 3  # grew
        assert sum(1 for l in set_lines if not l.is_prefetch) == 1  # shrank

    def test_misbehaving_prefetcher_recycles_itself(self):
        l1, _ = make_l1(grace=0)
        l1.prefetcher_trained = True
        lines = same_set_lines(l1, 6)
        for line in lines[:2]:
            l1._install(line, 0, is_prefetch=False)
        for line in lines[2:4]:
            l1._install(line, 0, is_prefetch=True)
        l1._prefetch_inserted = 100
        l1._prefetch_transferred = 10  # misbehaving
        l1._install(lines[4], now=100_000, is_prefetch=True)
        set_lines = l1.store.lines_in_set(l1.store.set_index(lines[0]))
        assert sum(1 for l in set_lines if not l.is_prefetch) == 2  # intact

