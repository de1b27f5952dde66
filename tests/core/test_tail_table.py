"""Tail table (§3.1): creation conditions, promotion, verification,
eviction policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tail_table import TailTable, TrainState


class TestRecordConditions:
    """Fig 12's three entry-creation conditions."""

    def test_new_pc1_creates_entry(self):
        tail = TailTable()
        entry = tail.record(0, pc1=0x10, pc2=0x20, stride=400)
        assert (entry.pc1, entry.pc2, entry.inter_thread_stride) == (0x10, 0x20, 400)
        assert len(tail) == 1

    def test_same_pc1_new_pc2_creates_entry(self):
        tail = TailTable()
        tail.record(0, 0x10, 0x20, 400)
        tail.record(0, 0x10, 0x30, 400)
        assert len(tail) == 2

    def test_stride_mismatch_creates_entry(self):
        tail = TailTable()
        tail.record(0, 0x10, 0x20, 400)
        tail.record(1, 0x10, 0x20, 800)
        assert len(tail) == 2

    def test_exact_match_reuses_entry(self):
        tail = TailTable()
        a = tail.record(0, 0x10, 0x20, 400)
        b = tail.record(1, 0x10, 0x20, 400)
        assert a is b
        assert len(tail) == 1


class TestPromotion:
    def test_promoted_after_three_warps(self):
        tail = TailTable(train_threshold=3)
        for warp in range(2):
            assert tail.record(warp, 0x10, 0x20, 400).t1 is TrainState.NOT_TRAINED
        assert tail.record(2, 0x10, 0x20, 400).t1 is TrainState.PROMOTED

    def test_same_warp_does_not_promote(self):
        tail = TailTable(train_threshold=3)
        for _ in range(10):
            entry = tail.record(5, 0x10, 0x20, 400)
        assert entry.t1 is TrainState.NOT_TRAINED

    def test_trained_after_further_confirmation(self):
        tail = TailTable(train_threshold=3)
        for warp in range(4):
            entry = tail.record(warp, 0x10, 0x20, 400)
        assert entry.t1 is TrainState.TRAINED

    def test_warp_vector_bits(self):
        tail = TailTable()
        entry = tail.record(0, 0x10, 0x20, 400)
        tail.record(5, 0x10, 0x20, 400)
        assert entry.has_warp(0) and entry.has_warp(5)
        assert not entry.has_warp(3)
        assert entry.popcount == 2


class TestVerification:
    """§3.2: a mismatching warp is removed and the entry demoted."""

    def test_changed_behaviour_clears_warp_bit(self):
        tail = TailTable()
        entry = tail.record(0, 0x10, 0x20, 400)
        tail.record(0, 0x10, 0x20, 999)  # same PCs, new stride
        assert not entry.has_warp(0)

    def test_empty_vector_demotes(self):
        tail = TailTable(train_threshold=1)
        entry = tail.record(0, 0x10, 0x20, 400)
        assert entry.t1.prefetchable
        tail.record(0, 0x10, 0x30, 123)  # warp 0 went elsewhere
        assert entry.t1 is TrainState.NOT_TRAINED

    def test_other_warps_keep_entry_trained(self):
        tail = TailTable(train_threshold=2)
        entry = tail.record(0, 0x10, 0x20, 400)
        tail.record(1, 0x10, 0x20, 400)
        tail.record(0, 0x10, 0x20, 999)
        assert entry.has_warp(1)
        assert entry.t1.prefetchable


class TestIntraWarp:
    def test_intra_stride_trains_with_three_warps(self):
        tail = TailTable(train_threshold=3)
        tail.record(0, 0x10, 0x20, 400)  # create the pc1=0x10 entry
        for warp in range(3):
            tail.record_intra(warp, 0x10, 4096)
        entry = tail.find(0x10)[0]
        assert entry.intra_stride == 4096
        assert entry.t2 is TrainState.TRAINED

    def test_self_entry_created_for_loop_pc(self):
        tail = TailTable()
        tail.record_intra(0, 0x50, 512)
        entries = tail.find(0x50)
        assert len(entries) == 1
        assert entries[0].pc2 == 0x50

    def test_majority_stride_wins(self):
        tail = TailTable(train_threshold=2)
        tail.record(0, 0x10, 0x20, 400)
        tail.record_intra(0, 0x10, 100)
        for warp in (1, 2, 3):
            tail.record_intra(warp, 0x10, 200)
        assert tail.find(0x10)[0].intra_stride == 200


class TestInterWarp:
    def test_installed_on_all_pc_entries(self):
        tail = TailTable()
        tail.record(0, 0x10, 0x20, 400)
        tail.record(0, 0x10, 0x30, 800)
        tail.record_inter_warp(0x10, 128)
        assert all(e.inter_warp_stride == 128 for e in tail.find(0x10))


class TestEviction:
    def test_capacity_respected(self):
        tail = TailTable(capacity=3)
        for i in range(10):
            tail.record(0, 0x10 + i, 0x20 + i, 400)
        assert len(tail) == 3
        assert tail.evictions == 7

    def test_lru_pop_keeps_popular_entry(self):
        """LRU+popcount: within the stale group, the well-confirmed entry
        survives and the single-warp one goes."""
        tail = TailTable(capacity=4, train_threshold=3, eviction="lru+pop")
        for warp in range(6):
            tail.record(warp, 0x10, 0x20, 400)  # popular entry
        tail.record(0, 0x30, 0x40, 100)  # singleton, same age region
        for i in range(2):
            tail.record(0, 0x50 + i * 16, 0x60, 100)  # fill to capacity
        tail.record(0, 0x90, 0xA0, 100)  # forces an eviction
        # the popular (0x10 -> 0x20) entry must still be there
        assert tail.find(0x10, 0x20, 400)

    def test_pop_only_evicts_fewest_ones(self):
        tail = TailTable(capacity=2, train_threshold=3, eviction="pop")
        for warp in range(5):
            tail.record(warp, 0x10, 0x20, 400)
        tail.record(0, 0x30, 0x40, 100)
        tail.record(1, 0x50, 0x60, 100)  # evicts the singleton 0x30 entry
        assert tail.find(0x10, 0x20, 400)
        assert not tail.find(0x30)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            TailTable(eviction="random")

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TailTable(capacity=0)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_rejects_threshold_below_one(self, threshold):
        """A threshold below one would promote a link no warp confirmed;
        ``GPUConfig.validate`` rejects the same values."""
        with pytest.raises(ValueError, match="train_threshold"):
            TailTable(train_threshold=threshold)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 20),
                              st.integers(0, 20), st.integers(-500, 500)),
                    min_size=1, max_size=200))
    def test_capacity_invariant(self, records):
        tail = TailTable(capacity=5)
        for warp, pc1, pc2, stride in records:
            tail.record(warp, pc1, pc2, stride)
        assert len(tail) <= 5
