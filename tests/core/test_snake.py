"""SnakePrefetcher behaviour on hand-built access streams."""

import pytest

from repro.core.snake import SnakePrefetcher


def run_chain(snake, warp, base, links, rounds=1):
    """Feed `rounds` traversals of a (pc, offset) chain; returns the last
    observe() result."""
    out = []
    addr = base
    for r in range(rounds):
        for pc, offset in links:
            out = snake.observe(warp, pc, addr + offset)
        addr += links[-1][1]  # advance by the loop stride
    return out


CHAIN = [(0x10, 0), (0x20, 400), (0x30, 40400)]


class TestChainDetection:
    def test_three_warps_promote_chain(self):
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False)
        for warp in range(3):
            for pc, offset in CHAIN:
                snake.observe(warp, pc, 10_000 * warp + offset)
        # a fourth warp at PC 0x10 must now get chain predictions
        requests = snake.observe(3, 0x10, 500_000)
        addrs = [addr for addr, _ in requests]
        assert 500_000 + 400 in addrs
        assert 500_000 + 40_400 in addrs

    def test_untrained_chain_is_silent(self):
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False)
        for pc, offset in CHAIN:
            snake.observe(0, pc, offset)
        assert snake.observe(0, 0x10, 100_000) == []

    def test_chain_depth_bounded(self):
        snake = SnakePrefetcher(
            max_chain_depth=2, use_intra=False, use_inter_warp=False
        )
        for warp in range(3):
            for pc, offset in CHAIN:
                snake.observe(warp, pc, 10_000 * warp + offset)
        requests = snake.observe(3, 0x10, 500_000)
        assert len(requests) <= 2

    def test_trained_property(self):
        snake = SnakePrefetcher()
        assert not snake.trained
        for warp in range(3):
            for pc, offset in CHAIN:
                snake.observe(warp, pc, 10_000 * warp + offset)
        assert snake.trained


class TestVerification:
    def test_warp_with_new_behaviour_is_removed(self):
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False)
        for warp in range(3):
            snake.observe(warp, 0x10, 10_000 * warp)
            snake.observe(warp, 0x20, 10_000 * warp + 400)
        entry = snake.tail.find(0x10, 0x20, 400)[0]
        assert entry.has_warp(1)
        # warp 1 now goes 0x10 -> 0x20 with a different stride
        snake.observe(1, 0x10, 90_000)
        snake.observe(1, 0x20, 90_000 + 888)
        assert not entry.has_warp(1)


class TestIntraWarp:
    def test_loop_stride_prefetched(self):
        snake = SnakePrefetcher(use_chains=False, use_inter_warp=False,
                                intra_degree=1)
        requests = []
        for warp in range(3):
            for i in range(3):
                requests = snake.observe(warp, 0x10, warp * 100_000 + i * 4096)
        assert [addr for addr, _ in requests] == [2 * 100_000 + 2 * 4096 + 4096]

    def test_degree_extends_reach(self):
        snake = SnakePrefetcher(use_chains=False, use_inter_warp=False,
                                intra_degree=3)
        for warp in range(3):
            for i in range(3):
                requests = snake.observe(warp, 0x10, warp * 100_000 + i * 4096)
        assert len(requests) == 3


class TestInterWarp:
    def test_fixed_warp_stride_prefetches_future_warps(self):
        snake = SnakePrefetcher(use_chains=False, use_intra=False,
                                inter_warp_degree=2)
        requests = []
        for warp in range(4):
            requests = snake.observe(warp, 0x10, warp * 4096)
        addrs = [addr for addr, _ in requests]
        assert 4 * 4096 in addrs and 5 * 4096 in addrs


class TestFlags:
    def test_s_snake_covers_loops_via_self_link_chains(self):
        # A consecutive same-PC loop forms a (pc -> pc) chain link, so even
        # chains-only s-Snake predicts the next iteration (§3.1, case 1).
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False)
        for warp in range(4):
            for i in range(4):
                requests = snake.observe(warp, 0x10, warp * 100_000 + i * 4096)
        assert requests and requests[0][0] == 3 * 100_000 + 4 * 4096

    def test_all_sources_disabled_is_silent(self):
        snake = SnakePrefetcher(
            use_chains=False, use_intra=False, use_inter_warp=False
        )
        for warp in range(4):
            for i in range(4):
                requests = snake.observe(warp, 0x10, warp * 100_000 + i * 4096)
        assert requests == []

    def test_requests_deduplicated(self):
        snake = SnakePrefetcher()
        for warp in range(4):
            for i in range(3):
                requests = snake.observe(warp, 0x10, warp * 4096 + i * 4096)
        addrs = [addr for addr, _ in requests]
        assert len(addrs) == len(set(addrs))

    def test_table_accesses_counted(self):
        snake = SnakePrefetcher()
        snake.observe(0, 0x10, 0)
        assert snake.table_accesses() > 0


class TestConstructorChecks:
    @pytest.mark.parametrize("threshold", [0, -1])
    def test_train_threshold_below_one_rejected(self, threshold):
        with pytest.raises(ValueError, match="train_threshold"):
            SnakePrefetcher(train_threshold=threshold)

    def test_negative_intra_degree_rejected(self):
        with pytest.raises(ValueError, match="intra_degree"):
            SnakePrefetcher(intra_degree=-1)

    def test_negative_inter_warp_degree_rejected(self):
        with pytest.raises(ValueError, match="inter_warp_degree"):
            SnakePrefetcher(inter_warp_degree=-1)

    @pytest.mark.parametrize("intra,inter", [(0, 0), (1, 0), (0, 1)])
    def test_zero_degree_is_legal_and_silences_its_source(self, intra, inter):
        """A degree of 0 switches that stride source's requests off; the
        stream trains both sources, so a degree of 1 predicts."""
        snake = SnakePrefetcher(
            intra_degree=intra, inter_warp_degree=inter, use_chains=False,
            train_threshold=1,
        )
        predicted = 0
        for k in range(6):
            for warp in range(4):
                predicted += len(snake.observe(warp, 0x10, 4096 * warp + 64 * k))
        assert (predicted > 0) == (intra + inter > 0)
