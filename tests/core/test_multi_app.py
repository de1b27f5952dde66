"""Multi-application mode and the throttle-controlled chain depth."""

from repro.core.snake import SnakePrefetcher
from repro.core.throttle import NullThrottle, Throttle
from repro.gpusim import GPUConfig
from repro.gpusim.gpu import GPU
from repro.gpusim.unified_cache import StorageMode
from repro.workloads import build_kernel


class TestPerAppTables:
    def test_apps_do_not_share_chains(self):
        snake = SnakePrefetcher(per_app=True, use_intra=False,
                                use_inter_warp=False)
        # app 0 trains a chain
        for warp in range(3):
            snake.observe(warp, 0x10, 10_000 * warp, app_id=0)
            snake.observe(warp, 0x20, 10_000 * warp + 400, app_id=0)
        # app 1 never sees it
        assert snake.observe(9, 0x10, 500_000, app_id=1) == []
        # app 0 does
        assert snake.observe(9, 0x10, 500_000, app_id=0)

    def test_shared_mode_mixes(self):
        snake = SnakePrefetcher(per_app=False, use_intra=False,
                                use_inter_warp=False)
        for warp in range(3):
            snake.observe(warp, 0x10, 10_000 * warp, app_id=0)
            snake.observe(warp, 0x20, 10_000 * warp + 400, app_id=0)
        assert snake.observe(9, 0x10, 500_000, app_id=1)

    def test_trained_any_app(self):
        snake = SnakePrefetcher(per_app=True, use_intra=False,
                                use_inter_warp=False)
        assert not snake.trained
        for warp in range(3):
            snake.observe(warp, 0x10, 10_000 * warp, app_id=2)
            snake.observe(warp, 0x20, 10_000 * warp + 400, app_id=2)
        assert snake.trained

    def test_table_accesses_sum_apps(self):
        snake = SnakePrefetcher(per_app=True)
        snake.observe(0, 0x10, 0, app_id=0)
        snake.observe(0, 0x10, 0, app_id=1)
        assert snake.table_accesses() >= 2


class TestRunMany:
    def test_concurrent_kernels_complete(self):
        config = GPUConfig.scaled()
        kernels = [
            build_kernel("lps", scale=0.25, seed=1),
            build_kernel("lib", scale=0.25, seed=2),
        ]
        expected = sum(k.num_instrs for k in kernels)
        gpu = GPU(config=config)
        stats = gpu.run_many(kernels)
        assert stats.instructions == expected

    def test_ids_renumbered_globally(self):
        config = GPUConfig.scaled()
        k1 = build_kernel("lps", scale=0.25, seed=1)
        k2 = build_kernel("lps", scale=0.25, seed=1)
        gpu = GPU(config=config)
        gpu.run_many([k1, k2])
        ids = [w.warp_id for k in (k1, k2) for w in k.all_warps()]
        assert len(ids) == len(set(ids))

    def test_rejects_empty(self):
        import pytest

        with pytest.raises(ValueError):
            GPU(config=GPUConfig.scaled()).run_many([])


class TestDepthLimit:
    def test_set_depth_limit_bounds_chain(self):
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False,
                                max_chain_depth=8)
        chain = [(0x10, 0), (0x20, 400), (0x30, 800), (0x40, 1200)]
        for warp in range(3):
            for pc, off in chain:
                snake.observe(warp, pc, 10_000 * warp + off)
        snake.set_depth_limit(1)
        shallow = snake.observe(7, 0x10, 500_000)
        snake.set_depth_limit(8)
        deep = snake.observe(7, 0x10, 500_000)
        assert len(deep) > len(shallow)

    def test_throttle_depth_schedule(self):
        throttle = Throttle(bw_high=0.7, bw_low=0.5)
        assert throttle.chain_depth_limit(0.1, 8) == 8
        assert throttle.chain_depth_limit(0.6, 8) == 4
        assert throttle.chain_depth_limit(0.9, 8) == 1

    def test_null_throttle_keeps_full_depth(self):
        assert NullThrottle().chain_depth_limit(0.99, 8) == 8
