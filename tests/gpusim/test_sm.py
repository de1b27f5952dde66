"""SM issue loop: latency, blocking loads, replay, barriers, CTA turnover."""

from repro.core.throttle import NullThrottle
from repro.gpusim.config import CacheConfig, GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.l2 import L2Cache
from repro.gpusim.sm import SM
from repro.gpusim.trace import CTA, Op, WarpInstr, WarpTrace
from repro.prefetch.base import Prefetcher


def make_sm(config=None, prefetcher=None):
    config = config or GPUConfig.scaled()
    dram = DRAM(config.dram, config.dram_channels, config.dram_banks_per_channel,
                config.dram_row_bytes, config.dram_clock_ratio, config.l2.line_bytes)
    l2 = L2Cache(config.l2, config.l2_banks, dram)
    return SM(0, config, l2, prefetcher or Prefetcher(), NullThrottle())


def cta(warp_instr_lists, cta_id=0, first_warp=0):
    return CTA(
        cta_id=cta_id,
        warps=[
            WarpTrace(warp_id=first_warp + i, instrs=instrs)
            for i, instrs in enumerate(warp_instr_lists)
        ],
    )


def alu(pc=0x10):
    return WarpInstr(pc=pc, op=Op.ALU)


def load(pc, addr):
    return WarpInstr(pc=pc, op=Op.LOAD, base_addr=addr, thread_stride=4)


class TestBasicExecution:
    def test_all_instructions_retire(self):
        sm = make_sm()
        sm.enqueue_cta(cta([[alu(), alu(), alu()], [alu()]]))
        stats = sm.run()
        assert stats.instructions == 4
        assert stats.warps_finished == 2

    def test_alu_only_ipc_reasonable(self):
        sm = make_sm()
        sm.enqueue_cta(cta([[alu() for _ in range(100)] for _ in range(8)]))
        stats = sm.run()
        assert stats.instructions == 800
        assert 0.5 < stats.ipc <= sm.config.issue_width

    def test_load_blocks_warp(self):
        sm = make_sm()
        sm.enqueue_cta(cta([[load(0x10, 0), alu()]]))
        stats = sm.run()
        # a single warp with a cold miss must stall roughly a memory latency
        assert stats.cycles > 100
        assert stats.stall_cycles_memory > 0

    def test_store_does_not_block(self):
        sm = make_sm()
        store = WarpInstr(pc=0x10, op=Op.STORE, base_addr=0, thread_stride=4)
        sm.enqueue_cta(cta([[store, alu()]]))
        stats = sm.run()
        assert stats.cycles < 50


class TestStallClassification:
    def test_memory_stalls_dominate_for_memory_bound(self):
        sm = make_sm()
        sm.enqueue_cta(
            cta([[load(0x10 + 8 * i, i * 4096) for i in range(10)] for _ in range(4)])
        )
        stats = sm.run()
        assert stats.memory_stall_fraction > 0.8

    def test_alu_stalls_not_memory(self):
        sm = make_sm()
        sm.enqueue_cta(cta([[alu() for _ in range(20)]]))
        stats = sm.run()
        assert stats.stall_cycles_memory == 0


class TestReplay:
    def test_reservation_fail_replays_to_completion(self):
        config = GPUConfig.scaled().with_(mshr_entries=1, miss_queue_depth=1)
        sm = make_sm(config)
        # two warps missing on different lines: the second must replay
        sm.enqueue_cta(cta([[load(0x10, 0)], [load(0x10, 1 << 20)]]))
        stats = sm.run()
        assert stats.warps_finished == 2
        assert stats.l1_reservation_fails > 0
        assert stats.instructions == 2


class TestBarrier:
    def test_barrier_synchronizes_cta(self):
        bar = WarpInstr(pc=0x50, op=Op.BARRIER)
        sm = make_sm()
        # warp 0 does a long load before the barrier, warp 1 arrives early
        sm.enqueue_cta(cta([[load(0x10, 0), bar, alu()], [bar, alu()]]))
        stats = sm.run()
        assert stats.warps_finished == 2
        assert stats.instructions == 5

    def test_single_warp_barrier_is_transparent(self):
        bar = WarpInstr(pc=0x50, op=Op.BARRIER)
        sm = make_sm()
        sm.enqueue_cta(cta([[bar, alu()]]))
        stats = sm.run()
        assert stats.warps_finished == 1


class TestCTATurnover:
    def test_queued_ctas_activate_when_slots_free(self):
        config = GPUConfig.scaled().with_(max_threads_per_sm=2 * 32)  # 2 warps
        sm = make_sm(config)
        sm.enqueue_cta(cta([[alu()], [alu()]], cta_id=0, first_warp=0))
        sm.enqueue_cta(cta([[alu()], [alu()]], cta_id=1, first_warp=2))
        stats = sm.run()
        assert stats.warps_finished == 4
        assert stats.instructions == 4


class TestPrefetcherHook:
    def test_prefetcher_sees_every_load_once(self):
        seen = []

        class Recorder(Prefetcher):
            def observe(self, warp_id, pc, base_addr, app_id=0,
                        divergent=False, now=0, cta_id=0):
                seen.append((warp_id, pc, base_addr))
                return []

        sm = make_sm(prefetcher=Recorder())
        sm.enqueue_cta(cta([[load(0x10, 0), load(0x18, 128)]]))
        sm.run()
        assert seen == [(0, 0x10, 0), (0, 0x18, 128)]

    def test_prefetcher_sees_the_issuing_cta(self):
        seen = []

        class Recorder(Prefetcher):
            def observe(self, warp_id, pc, base_addr, app_id=0,
                        divergent=False, now=0, cta_id=0):
                seen.append((warp_id, cta_id))
                return []

        sm = make_sm(prefetcher=Recorder())
        sm.enqueue_cta(cta([[load(0x10, 0)]], cta_id=5, first_warp=0))
        sm.enqueue_cta(cta([[load(0x10, 4096)]], cta_id=9, first_warp=1))
        sm.run()
        assert sorted(seen) == [(0, 5), (1, 9)]

    def test_replay_does_not_retrain(self):
        seen = []

        class Recorder(Prefetcher):
            def observe(self, warp_id, pc, base_addr, app_id=0,
                        divergent=False, now=0, cta_id=0):
                seen.append(pc)
                return []

        config = GPUConfig.scaled().with_(mshr_entries=1, miss_queue_depth=1)
        sm = make_sm(config, prefetcher=Recorder())
        sm.enqueue_cta(cta([[load(0x10, 0)], [load(0x20, 1 << 20)]]))
        stats = sm.run()
        assert stats.l1_reservation_fails > 0
        assert len(seen) == 2  # one observation per static load, not per replay
