"""Domino and Bingo — CPU prefetchers adapted to the GPU L1 (§6.1)."""

from repro.prefetch.bingo import BingoPrefetcher
from repro.prefetch.domino import DominoPrefetcher


class TestDomino:
    def test_replays_temporal_stream(self):
        pf = DominoPrefetcher(degree=2)
        stream = [0, 512, 8192, 128, 640]
        for addr in stream:
            pf.observe(0, 0x10, addr)
        # revisiting the stream's start must replay the successors
        requests = pf.observe(0, 0x10, 0)
        addrs = [addr for addr, _ in requests]
        assert addrs[:2] == [512, 8192]

    def test_pair_index_disambiguates(self):
        pf = DominoPrefetcher(degree=1)
        # two contexts ending in the same address but different successors
        for addr in [100 * 128, 0, 1 * 128, 200 * 128, 0, 5 * 128]:
            pf.observe(0, 0x10, addr)
        # context (200*128, 0) -> 5*128 must win over the single-addr match
        pf.observe(0, 0x10, 200 * 128)
        requests = pf.observe(0, 0x10, 0)
        assert requests and requests[0][0] == 5 * 128

    def test_history_bounded(self):
        pf = DominoPrefetcher(history_size=64)
        for i in range(1000):
            pf.observe(0, 0x10, i * 128)
        assert len(pf._history) <= 64

    def test_cold_stream_is_silent(self):
        pf = DominoPrefetcher()
        assert pf.observe(0, 0x10, 0) == []


class TestBingo:
    def test_learns_and_replays_footprint(self):
        pf = BingoPrefetcher(region_bytes=1024, max_regions=1)
        # generation in region 0: touch lines 0, 3, 5 (trigger offset 0)
        for offset in (0, 3, 5):
            pf.observe(0, 0x10, offset * 128)
        # the access that opens a new region retires region 0, records its
        # footprint under the (pc, offset-0) short event, and — because the
        # new trigger matches that event — replays the footprint immediately
        requests = pf.observe(0, 0x10, 1 << 20)
        offsets = sorted((addr - (1 << 20)) // 128 for addr, _ in requests)
        assert offsets == [3, 5]

    def test_active_region_accumulates_silently(self):
        pf = BingoPrefetcher(region_bytes=1024)
        pf.observe(0, 0x10, 0)
        assert pf.observe(0, 0x10, 256) == []

    def test_unknown_region_and_pc_is_silent(self):
        pf = BingoPrefetcher()
        assert pf.observe(0, 0x99, 5 << 20) == []

    def test_rejects_bad_region(self):
        import pytest

        with pytest.raises(ValueError):
            BingoPrefetcher(region_bytes=1000)


class TestIntegration:
    def test_both_run_end_to_end(self):
        from repro.gpusim import simulate
        from repro.workloads import build_kernel

        kernel = build_kernel("lps", scale=0.25, seed=1)
        for mech in ("domino", "bingo"):
            stats = simulate(kernel, prefetcher=mech)
            assert stats.instructions == kernel.num_instrs

    def test_snake_beats_cpu_designs_on_gpu_workloads(self):
        """§6.1: CPU prefetchers cannot directly exploit GPU access
        structure — Snake's GPU-specific chains must dominate."""
        from repro.gpusim import simulate
        from repro.workloads import build_kernel

        kernel = build_kernel("srad", scale=0.5, seed=1)
        snake = simulate(kernel, prefetcher="snake")
        domino = simulate(kernel, prefetcher="domino")
        bingo = simulate(kernel, prefetcher="bingo")
        assert snake.coverage > max(domino.coverage, bingo.coverage) + 0.2
