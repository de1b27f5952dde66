"""Demand-priority scheduling across the memory path.

GPU memory systems serve demand responses ahead of best-effort prefetch
traffic; these tests pin the virtual-channel semantics of the interconnect,
L2 banks, and DRAM, plus the promotion of merged prefetch fills.
"""

import pytest

from repro.gpusim.config import CacheConfig, DRAMTimings, GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache
from repro.gpusim.stats import SimStats
from repro.gpusim.unified_cache import L1Outcome, StorageMode, UnifiedL1Cache

from .l1_issue import prefetch_line


class TestInterconnectPriority:
    def test_priority_unaffected_by_best_effort_backlog(self):
        icnt = Interconnect(bytes_per_cycle=8, latency=0)
        icnt.send(0, 8_000)  # best-effort backlog: 1000 cycles of channel
        arrival = icnt.send(0, 8, priority=True)
        assert arrival == 1  # jumps the backlog

    def test_best_effort_queues_behind_priority(self):
        icnt = Interconnect(bytes_per_cycle=8, latency=0)
        icnt.send(0, 800, priority=True)  # 100 cycles of priority traffic
        arrival = icnt.send(0, 8)
        assert arrival >= 100

    def test_priority_queues_behind_priority(self):
        icnt = Interconnect(bytes_per_cycle=8, latency=0)
        a = icnt.send(0, 80, priority=True)
        b = icnt.send(0, 80, priority=True)
        assert b == a + 10

    def test_all_traffic_counted_in_utilization(self):
        icnt = Interconnect(bytes_per_cycle=8, latency=0, window=100)
        icnt.send(0, 400, priority=True)
        icnt.send(0, 400)
        assert icnt.bytes_transferred == 800


class TestInterconnectMixedTraffic:
    """Interleaved demand + prefetch streams: the virtual-channel
    invariants the sanitizer audits at cadence must hold after *every*
    send, not just in the two-send corner cases above."""

    def _mixed_sends(self, seed):
        import random

        rng = random.Random(seed)
        now = 0
        for _ in range(400):
            now += rng.randrange(0, 5)
            yield now, rng.randrange(8, 512), rng.random() < 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_priority_horizon_never_passes_combined(self, seed):
        icnt = Interconnect(bytes_per_cycle=32, latency=4)
        for now, nbytes, priority in self._mixed_sends(seed):
            icnt.send(now, nbytes, priority=priority)
            assert icnt.priority_next_free <= icnt.next_free

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_horizons_monotonic_under_mixed_traffic(self, seed):
        icnt = Interconnect(bytes_per_cycle=32, latency=4)
        prev = icnt.snapshot()
        for now, nbytes, priority in self._mixed_sends(seed):
            icnt.send(now, nbytes, priority=priority)
            snap = icnt.snapshot()
            assert snap["next_free"] >= prev["next_free"]
            assert snap["priority_next_free"] >= prev["priority_next_free"]
            assert snap["bytes_transferred"] > prev["bytes_transferred"]
            prev = snap

    def test_demand_latency_independent_of_prefetch_load(self):
        # the same demand stream, with and without a heavy best-effort
        # stream interleaved: demand arrivals must be identical
        quiet = Interconnect(bytes_per_cycle=32, latency=4)
        busy = Interconnect(bytes_per_cycle=32, latency=4)
        arrivals_quiet, arrivals_busy = [], []
        for step in range(100):
            now = step * 3
            busy.send(now, 256)  # prefetch pressure on the busy channel
            arrivals_quiet.append(quiet.send(now, 64, priority=True))
            arrivals_busy.append(busy.send(now, 64, priority=True))
        assert arrivals_busy == arrivals_quiet

    def test_utilization_bounded_under_saturation(self):
        icnt = Interconnect(bytes_per_cycle=8, latency=0, window=64)
        for now, nbytes, priority in self._mixed_sends(3):
            icnt.send(now, nbytes, priority=priority)
            assert 0.0 <= icnt.measured_utilization(now) <= 1.0


class TestDRAMPriority:
    def _dram(self):
        return DRAM(DRAMTimings(), channels=1, banks_per_channel=1,
                    row_bytes=2048, clock_ratio=0.5, line_bytes=128)

    def test_demand_not_blocked_by_future_prefetch_activate(self):
        dram = self._dram()
        # a best-effort prefetch scheduled far in the future (its queueing
        # starts late) opens a row and sets activate state
        dram.access(1 << 20, now=5_000, priority=False)
        # demand arriving *now* must not wait for the future activate
        done = dram.access(2 << 20, now=0, priority=True)
        assert done < 1_000

    def test_priority_respects_own_trc(self):
        dram = self._dram()
        first = dram.access(1 << 20, now=0, priority=True)
        second = dram.access(2 << 20, now=0, priority=True)
        assert second > first  # same bank, back-to-back activates spaced

    def test_best_effort_queues_behind_everything(self):
        dram = self._dram()
        dram.access(1 << 20, now=0, priority=True)
        late = dram.access(2 << 20, now=0, priority=False)
        fresh = self._dram().access(2 << 20, now=0, priority=False)
        assert late >= fresh


class TestL2Priority:
    def _l2(self):
        dram = DRAM(DRAMTimings(), 2, 4, 2048, 0.5, 128)
        config = CacheConfig(size_bytes=16 * 1024, assoc=8, line_bytes=128,
                             latency=100)
        return L2Cache(config, banks=4, dram=dram)

    def test_priority_bank_slot_jumps_best_effort(self):
        l2 = self._l2()
        for i in range(10):
            l2.access(i * 4 * 128, now=0, priority=False)  # bank 0 backlog
        fast = self._l2()
        unloaded = fast.access(40 * 128, now=0, priority=True)
        loaded = l2.access(40 * 128, now=0, priority=True)
        assert loaded <= unloaded + 200

    def test_demand_merge_promotes_inflight_prefetch(self):
        l2 = self._l2()
        l2.access(0, now=0, priority=False)  # prefetch in flight
        merged = l2.access(0, now=1, priority=True)
        # promoted: no later than roughly an unloaded access
        assert merged <= 1 + l2.config.latency + 50


class TestL1Promotion:
    def _l1(self):
        config = GPUConfig.scaled()
        dram = DRAM(config.dram, 2, 4, 2048, 0.5, 128)
        l2 = L2Cache(config.l2, 4, dram)
        stats = SimStats()
        l1 = UnifiedL1Cache(
            config,
            Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
            Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
            l2, stats, mode=StorageMode.COUPLED,
        )
        return l1, stats

    def test_demand_merge_into_late_prefetch_is_bounded(self):
        l1, stats = self._l1()
        # saturate the best-effort response channel so the prefetch is late
        l1._icnt_resp.send(0, 50_000)
        assert prefetch_line(l1, 0, now=0)
        outcome, ready = l1.demand_load(0, now=10)
        assert outcome is L1Outcome.RESERVED
        assert ready - 10 <= l1._unloaded_round_trip() + 1

    def test_unloaded_round_trip_positive(self):
        l1, _ = self._l1()
        assert l1._unloaded_round_trip() > l1.config.l2.latency
