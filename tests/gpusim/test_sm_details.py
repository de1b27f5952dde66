"""SM corner cases: SFU, issue width, wide stores, prefetch footprints,
per-app tagging, prefetcher pipeline latency."""

from repro.core.throttle import NullThrottle
from repro.gpusim.coalescer import coalesce_lines
from repro.gpusim.config import GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.l2 import L2Cache
from repro.gpusim.sm import SM
from repro.gpusim.trace import CTA, Op, WarpInstr, WarpTrace
from repro.prefetch.base import Prefetcher


def make_sm(config=None, prefetcher=None, throttle=None):
    config = config or GPUConfig.scaled()
    dram = DRAM(config.dram, config.dram_channels, config.dram_banks_per_channel,
                config.dram_row_bytes, config.dram_clock_ratio, config.l2.line_bytes)
    l2 = L2Cache(config.l2, config.l2_banks, dram)
    return SM(0, config, l2, prefetcher or Prefetcher(), throttle or NullThrottle())


def cta_of(*warp_instrs, cta_id=0):
    return CTA(cta_id=cta_id, warps=[
        WarpTrace(warp_id=i, instrs=list(instrs))
        for i, instrs in enumerate(warp_instrs)
    ])


class TestLatencies:
    def test_sfu_slower_than_alu(self):
        alu_sm = make_sm()
        alu_sm.enqueue_cta(cta_of([WarpInstr(pc=1, op=Op.ALU)] * 20))
        alu_cycles = alu_sm.run().cycles

        sfu_sm = make_sm()
        sfu_sm.enqueue_cta(cta_of([WarpInstr(pc=1, op=Op.SFU)] * 20))
        assert sfu_sm.run().cycles > alu_cycles

    def test_issue_width_bounds_throughput(self):
        wide = make_sm(GPUConfig.scaled().with_(issue_width=4))
        wide.enqueue_cta(cta_of(*[[WarpInstr(pc=1, op=Op.ALU)] * 50] * 8))
        narrow = make_sm(GPUConfig.scaled().with_(issue_width=1))
        narrow.enqueue_cta(cta_of(*[[WarpInstr(pc=1, op=Op.ALU)] * 50] * 8))
        assert narrow.run().cycles > wide.run().cycles


class TestWideAccesses:
    def test_scattered_store_counts_bandwidth_per_line(self):
        sm = make_sm()
        store = WarpInstr(pc=1, op=Op.STORE, base_addr=0, thread_stride=256)
        sm.enqueue_cta(cta_of([store]))
        stats = sm.run()
        assert stats.icnt_bytes >= 32 * 8  # one request header per line

    def test_scattered_load_fills_every_line(self):
        sm = make_sm()
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=256)
        sm.enqueue_cta(cta_of([load]))
        stats = sm.run()
        assert stats.l1_misses + stats.l1_reserved >= 16


class TestPrefetchFootprint:
    def test_prefetch_request_expands_with_trigger_stride(self):
        class OneShot(Prefetcher):
            def __init__(self):
                self.done = False

            def observe(self, *args):
                if self.done:
                    return []
                self.done = True
                return [(1 << 20, 1)]

        sm = make_sm(prefetcher=OneShot())
        # broadcast trigger -> single-line prefetch footprint
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=0)
        sm.enqueue_cta(cta_of([load]))
        stats = sm.run()
        assert stats.prefetch.issued == 1

    def test_prefetch_delayed_by_pipeline_latency(self):
        issued_at = []

        class OneShot(Prefetcher):
            def __init__(self):
                self.done = False

            def observe(self, *args):
                if self.done:
                    return []
                self.done = True
                return [(1 << 20, 1)]

        config = GPUConfig.scaled().with_(prefetcher_latency=7)
        sm = make_sm(config, prefetcher=OneShot())
        original = sm.l1.prefetch_trigger

        def spy(requests, stride, size_bytes, pc, now, issue_at, throttle,
                utilization=None):
            issued_at.extend(
                (line, issue_at)
                for base_addr, _depth in requests
                for line in coalesce_lines(
                    base_addr, stride, size_bytes, config.warp_size,
                    sm.l1.line_bytes,
                )
            )
            return original(requests, stride, size_bytes, pc, now, issue_at,
                            throttle, utilization)

        sm.l1.prefetch_trigger = spy
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=0)
        sm.enqueue_cta(cta_of([load]))
        sm.run()
        assert issued_at and issued_at[0][1] == 7  # trigger at cycle 0 + latency


class TestAppTagging:
    def test_events_carry_app_id(self):
        seen = []

        class Recorder(Prefetcher):
            def observe(self, warp_id, pc, base_addr, app_id=0,
                        divergent=False, now=0, cta_id=0):
                seen.append(app_id)
                return []

        sm = make_sm(prefetcher=Recorder())
        load = WarpInstr(pc=1, op=Op.LOAD, base_addr=0, thread_stride=4)
        sm.enqueue_cta(cta_of([load], cta_id=0), app_id=3)
        sm.run()
        assert seen == [3]
