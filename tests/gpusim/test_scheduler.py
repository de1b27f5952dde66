"""Warp schedulers."""

from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.scheduler import GTOScheduler, RRScheduler, make_scheduler


@dataclass
class FakeWarp:
    warp_id: int


def warps(*ids):
    return [FakeWarp(i) for i in ids]


class TestGTO:
    def test_picks_oldest_first(self):
        sched = GTOScheduler()
        assert sched.pick(warps(3, 1, 2)).warp_id == 1

    def test_greedy_sticks_to_last(self):
        sched = GTOScheduler()
        picked = sched.pick(warps(0, 1, 2))
        sched.note_issued(picked)
        # even though 0 is oldest, the scheduler stays greedy on `picked`
        again = sched.pick(warps(2, 1, 0))
        assert again.warp_id == picked.warp_id

    def test_falls_back_to_oldest_when_last_stalls(self):
        sched = GTOScheduler()
        sched.note_issued(FakeWarp(5))
        assert sched.pick(warps(7, 3)).warp_id == 3

    def test_raises_on_empty(self):
        with pytest.raises(ValueError):
            GTOScheduler().pick([])


class TestRR:
    def test_rotates(self):
        sched = RRScheduler()
        ready = warps(0, 1, 2)
        order = []
        for _ in range(6):
            w = sched.pick(ready)
            sched.note_issued(w)
            order.append(w.warp_id)
        assert order == [0, 1, 2, 0, 1, 2]

    def test_wraps_around(self):
        sched = RRScheduler()
        sched.note_issued(FakeWarp(2))
        assert sched.pick(warps(0, 1)).warp_id == 0

    def test_raises_on_empty(self):
        with pytest.raises(ValueError):
            RRScheduler().pick([])

    @given(
        ids=st.lists(st.integers(0, 63), min_size=1, max_size=16, unique=True),
        last=st.integers(-1, 64),
    )
    def test_pick_matches_sorted_scan(self, ids, last):
        """The original shape: sort the ready set by warp id, take the
        first id at or after the rotation point, else the lowest."""
        sched = RRScheduler()
        if last >= 0:
            sched.note_issued(FakeWarp(last))
        ready = warps(*ids)
        ordered = sorted(ready, key=lambda w: w.warp_id)
        expected = next(
            (w for w in ordered if w.warp_id >= sched._next), ordered[0]
        )
        assert sched.pick(ready) is expected


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_scheduler("gto"), GTOScheduler)
        assert isinstance(make_scheduler("rr"), RRScheduler)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo")
