"""Property-based tests for Snake's chain machinery: any synthetic chain
spec must be learned and predicted exactly."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailTable


@st.composite
def chain_spec(draw):
    """A random chain: 2-5 distinct PCs with nonzero strides between them."""
    length = draw(st.integers(2, 5))
    pcs = draw(st.lists(st.integers(1, 1 << 16), min_size=length,
                        max_size=length, unique=True))
    strides = draw(st.lists(
        st.integers(-50_000, 50_000).filter(lambda s: s != 0),
        min_size=length - 1, max_size=length - 1,
    ))
    return list(zip(pcs, [0] + list(_accumulate(strides))))


def _accumulate(strides):
    total = 0
    for stride in strides:
        total += stride
        yield total


class TestChainLearning:
    @settings(max_examples=30, deadline=None)
    @given(spec=chain_spec(), warps=st.integers(3, 6))
    def test_any_chain_is_learned_and_predicted(self, spec, warps):
        snake = SnakePrefetcher(use_intra=False, use_inter_warp=False,
                                tail_entries=16, max_chain_depth=8)
        base_step = 1 << 20
        for warp in range(warps):
            for pc, offset in spec:
                snake.observe(warp, pc, warp * base_step + offset + base_step)
        # a new warp at the chain head gets the full chain predicted
        head_pc, head_off = spec[0]
        trigger = 64 * base_step + head_off
        requests = snake.observe(63, head_pc, trigger)
        predicted = {addr for addr, _ in requests}
        for pc, offset in spec[1:]:
            assert trigger + (offset - head_off) in predicted

    @settings(max_examples=30, deadline=None)
    @given(spec=chain_spec())
    def test_requests_are_deduplicated_and_nonnegative(self, spec):
        snake = SnakePrefetcher(tail_entries=16)
        for warp in range(4):
            for pc, offset in spec:
                snake.observe(warp, pc, warp * (1 << 20) + offset + (1 << 20))
        requests = snake.observe(9, spec[0][0], 1 << 24)
        addrs = [addr for addr, _ in requests]
        assert len(addrs) == len(set(addrs))
        assert all(a >= 0 for a in addrs)


class TestTailTableProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 30),
                              st.integers(0, 30),
                              st.integers(-1000, 1000).filter(lambda s: s != 0)),
                    min_size=1, max_size=300),
           st.sampled_from(["lru+pop", "pop"]))
    def test_invariants_under_any_record_stream(self, records, policy):
        tail = TailTable(capacity=6, eviction=policy)
        for warp, pc1, pc2, stride in records:
            tail.record(warp, pc1, pc2, stride)
        assert len(tail) <= 6
        for entry in tail.entries():
            assert entry.popcount <= 16
            # a promoted entry has at least threshold distinct confirmations
            if entry.t1.name != "NOT_TRAINED":
                assert entry.popcount >= 1

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=3, max_size=40, unique=True))
    def test_warp_vector_reflects_confirming_warps(self, warps):
        tail = TailTable(capacity=4)
        for warp in warps:
            entry = tail.record(warp, 0x10, 0x20, 400)
        # 64-bit vector wraps warp ids mod 64; all our ids are < 64
        for warp in warps:
            assert entry.has_warp(warp)
