"""Head table (§3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.head_table import HeadTable


class TestUpdate:
    def test_first_load_yields_no_transition(self):
        head = HeadTable()
        assert head.update(0, pc=0x10, addr=1000) is None

    def test_second_load_yields_transition(self):
        head = HeadTable()
        head.update(0, 0x10, 1000)
        assert head.update(0, 0x20, 1400) == (0x10, 400)  # (pc1, stride)

    def test_negative_stride(self):
        head = HeadTable()
        head.update(0, 0x10, 1000)
        assert head.update(0, 0x20, 600) == (0x10, -400)

    def test_warps_tracked_independently(self):
        head = HeadTable()
        head.update(0, 0x10, 1000)
        head.update(1, 0x10, 9000)
        assert head.update(0, 0x20, 1100) == (0x10, 100)
        assert head.update(1, 0x20, 9200) == (0x10, 200)

    def test_lookup(self):
        head = HeadTable()
        head.update(3, 0x10, 1000)
        assert head.lookup(3) == (0x10, 1000)
        assert head.lookup(4) is None


class TestCapacity:
    def test_lru_warp_evicted(self):
        head = HeadTable(capacity=2)
        head.update(0, 0x10, 0)
        head.update(1, 0x10, 0)
        head.update(2, 0x10, 0)  # evicts warp 0
        assert head.lookup(0) is None
        assert head.update(0, 0x20, 100) is None  # history lost

    def test_update_refreshes_lru(self):
        head = HeadTable(capacity=2)
        head.update(0, 0x10, 0)
        head.update(1, 0x10, 0)
        head.update(0, 0x20, 4)  # warp 0 becomes MRU
        head.update(2, 0x10, 0)  # evicts warp 1
        assert head.lookup(0) is not None
        assert head.lookup(1) is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            HeadTable(capacity=0)

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 100)),
                    min_size=1, max_size=200))
    def test_size_bounded(self, updates):
        head = HeadTable(capacity=4)
        for warp, addr in updates:
            head.update(warp, 0x10, addr * 4)
        assert len(head) <= 4

    def test_accesses_counted(self):
        head = HeadTable()
        head.update(0, 0x10, 0)
        head.update(0, 0x20, 4)
        assert head.accesses == 2
