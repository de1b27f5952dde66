"""Snapshot/restore round trips for the Head/Tail tables and the full
SnakePrefetcher (the durability substrate of the repro.serve journal).

The contract under test (docs/SERVING.md):

* ``restore(snapshot(x))`` reproduces *exact* state — the next snapshot is
  byte-identical once serialized to canonical JSON;
* restored learners are behaviourally equivalent — feeding the original
  and the restored instance the same subsequent events yields the same
  predictions and the same final snapshots;
* snapshots are JSON-safe (round-trip through ``json.dumps``/``loads``).
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.head_table import HeadTable
from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailTable
from repro.prefetch.stride import ConsensusTracker


def canonical(snapshot):
    """Byte-identical equality is asserted on this serialization."""
    return json.dumps(snapshot, sort_keys=True).encode("utf-8")


def json_round_trip(snapshot):
    return json.loads(json.dumps(snapshot))


def random_events(seed, count=200, apps=1):
    """A deterministic mixed stream of ``observe`` argument tuples
    ``(warp, pc, addr, app, divergent)``: chains, strides, and noise."""
    rng = random.Random(seed)
    events = []
    for i in range(count):
        app = rng.randrange(apps)
        warp = rng.randrange(8)
        pc = rng.choice([0x10, 0x20, 0x30, 0x40, 0x50])
        addr = rng.randrange(0, 1 << 24) * 4
        events.append((warp, pc, addr, app, rng.random() < 0.05))
    return events


class TestHeadTableSnapshot:
    def test_empty_round_trip(self):
        table = HeadTable(capacity=4)
        restored = HeadTable.restore(json_round_trip(table.snapshot()))
        assert canonical(restored.snapshot()) == canonical(table.snapshot())

    def test_round_trip_preserves_rows_and_lru(self):
        table = HeadTable(capacity=3)
        for warp, pc, addr in [(0, 1, 100), (1, 2, 200), (2, 3, 300),
                               (0, 4, 400), (3, 5, 500)]:
            table.update(warp, pc, addr)
        restored = HeadTable.restore(json_round_trip(table.snapshot()))
        assert canonical(restored.snapshot()) == canonical(table.snapshot())
        assert len(restored) == len(table)
        assert restored.accesses == table.accesses
        # LRU order survives: the same next update evicts the same victim.
        table.update(9, 9, 900)
        restored.update(9, 9, 900)
        assert canonical(restored.snapshot()) == canonical(table.snapshot())

    def test_version_mismatch_rejected(self):
        data = HeadTable().snapshot()
        data["v"] = 999
        with pytest.raises(ValueError):
            HeadTable.restore(data)

    def test_overfull_snapshot_rejected(self):
        data = HeadTable(capacity=1).snapshot()
        data["rows"] = [[0, 1, 2], [1, 2, 3]]
        with pytest.raises(ValueError):
            HeadTable.restore(data)


class TestTailTableSnapshot:
    def _stocked(self):
        table = TailTable(capacity=4, train_threshold=2)
        for warp in range(3):
            table.record(warp, 0x10, 0x20, 400)
        table.record_intra(0, 0x10, 64)
        table.record_intra(1, 0x10, 64)
        table.record_inter_warp(0x10, 4096)
        table.record(5, 0x20, 0x30, -32)
        return table

    def test_round_trip_byte_identical(self):
        table = self._stocked()
        restored = TailTable.restore(json_round_trip(table.snapshot()))
        assert canonical(restored.snapshot()) == canonical(table.snapshot())

    def test_round_trip_preserves_behaviour(self):
        table = self._stocked()
        restored = TailTable.restore(json_round_trip(table.snapshot()))
        for t in (table, restored):
            t.record(6, 0x10, 0x20, 400)
            t.record_intra(2, 0x10, 64)
        assert canonical(restored.snapshot()) == canonical(table.snapshot())
        assert [e.pc1 for e in restored.entries()] == [
            e.pc1 for e in table.entries()
        ]

    def test_restored_table_is_structurally_clean(self):
        restored = TailTable.restore(json_round_trip(self._stocked().snapshot()))
        assert restored.structural_violations() == []

    def test_version_mismatch_rejected(self):
        data = TailTable().snapshot()
        data["v"] = 0
        with pytest.raises(ValueError):
            TailTable.restore(data)

    def test_overfull_snapshot_rejected(self):
        table = TailTable(capacity=2)
        table.record(0, 1, 2, 4)
        data = table.snapshot()
        data["entries"] = data["entries"] * 3
        with pytest.raises(ValueError):
            TailTable.restore(data)

    def test_duplicate_link_rejected(self):
        """``record`` matches on ``(pc1, pc2, stride)``, so no live table
        holds one link twice."""
        table = TailTable(capacity=4)
        table.record(0, 1, 2, 4)
        table.record(1, 1, 2, 8)
        data = json_round_trip(table.snapshot())
        data["entries"][1]["inter_thread_stride"] = 4
        with pytest.raises(ValueError, match="twice"):
            TailTable.restore(data)

    @pytest.mark.parametrize("warp_vector", [-5, 1 << 64])
    def test_warp_vector_outside_field_rejected(self, warp_vector):
        data = self._stocked().snapshot()
        data["entries"][0]["warp_vector"] = warp_vector
        with pytest.raises(ValueError, match="warp_vector"):
            TailTable.restore(data)


class TestConsensusTrackerSnapshot:
    def test_round_trip(self):
        tracker = ConsensusTracker(threshold=3)
        for voter in range(3):
            tracker.vote(voter, 512)
        tracker.vote(7, -64)
        restored = ConsensusTracker.restore(json_round_trip(tracker.snapshot()))
        assert restored.trained_stride == tracker.trained_stride == 512
        assert canonical(restored.snapshot()) == canonical(tracker.snapshot())
        # behavioural equivalence on further votes
        assert tracker.vote(8, -64) == restored.vote(8, -64)


class TestSnakeSnapshot:
    def test_empty_round_trip(self):
        snake = SnakePrefetcher()
        restored = SnakePrefetcher.restore(json_round_trip(snake.snapshot()))
        assert canonical(restored.snapshot()) == canonical(snake.snapshot())

    @pytest.mark.parametrize("per_app", [False, True])
    def test_round_trip_mid_stream(self, per_app):
        snake = SnakePrefetcher(per_app=per_app)
        events = random_events(seed=7, count=300, apps=2 if per_app else 1)
        for event in events[:150]:
            snake.observe(*event)
        snapshot = json_round_trip(snake.snapshot())
        restored = SnakePrefetcher.restore(snapshot)
        assert canonical(restored.snapshot()) == canonical(snake.snapshot())
        # behavioural equivalence: the tail of the stream produces the
        # same predictions and the same final state on both instances.
        for event in events[150:]:
            assert [addr for addr, _ in snake.observe(*event)] == [
                addr for addr, _ in restored.observe(*event)
            ]
        assert canonical(restored.snapshot()) == canonical(snake.snapshot())

    def test_depth_limit_survives(self):
        snake = SnakePrefetcher()
        snake.set_depth_limit(2)
        restored = SnakePrefetcher.restore(snake.snapshot())
        assert restored._depth_limit == 2

    @pytest.mark.parametrize("depth_limit", [0, -5])
    def test_depth_limit_below_one_rejected(self, depth_limit):
        """``set_depth_limit`` clamps to >= 1, so no live learner has a
        smaller limit and no snapshot may restore one."""
        data = SnakePrefetcher().snapshot()
        data["depth_limit"] = depth_limit
        with pytest.raises(ValueError, match="depth_limit"):
            SnakePrefetcher.restore(data)

    def test_tail_config_mismatch_rejected(self):
        """An app's Tail must have the learner's capacity and threshold
        (``_select_app`` builds every table from the config)."""
        data = SnakePrefetcher(tail_entries=10, train_threshold=3).snapshot()
        data["app_tables"][0][2] = TailTable(
            capacity=64, train_threshold=7
        ).snapshot()
        with pytest.raises(ValueError, match="disagree"):
            SnakePrefetcher.restore(data)

    @pytest.mark.parametrize("field,value", [
        ("capacity", 64), ("train_threshold", 7), ("eviction", "pop"),
    ])
    def test_each_tail_config_field_checked(self, field, value):
        data = SnakePrefetcher(per_app=True).snapshot()
        data["app_tables"][0][2][field] = value
        with pytest.raises(ValueError, match="disagree"):
            SnakePrefetcher.restore(data)

    def test_head_capacity_mismatch_rejected(self):
        data = SnakePrefetcher(head_entries=32).snapshot()
        data["app_tables"][0][1]["capacity"] = 8
        with pytest.raises(ValueError, match="disagree"):
            SnakePrefetcher.restore(data)

    def test_more_than_two_iw_slots_rejected(self):
        """``observe`` trims the slot list to two after each append, so a
        restored list of five would stay at five."""
        data = SnakePrefetcher().snapshot()
        data["iw_last"] = [[0, 0x10, [[w, 64 * w] for w in range(5)]]]
        with pytest.raises(ValueError, match="slots"):
            SnakePrefetcher.restore(data)

    def test_tracker_threshold_mismatch_rejected(self):
        data = SnakePrefetcher(train_threshold=3).snapshot()
        data["iw_consensus"] = [
            [0, 0x10, ConsensusTracker(threshold=1).snapshot()]
        ]
        with pytest.raises(ValueError, match="threshold"):
            SnakePrefetcher.restore(data)

    def test_consistent_parts_restore(self):
        """The checks admit a learner's own parts: two slots and a tracker
        at the learner's threshold."""
        snake = SnakePrefetcher(train_threshold=2)
        for warp in range(4):
            snake.observe(warp, 0x10, 4096 * warp)
        image = json_round_trip(snake.snapshot())
        assert [len(slots) for _, _, slots in image["iw_last"]] == [2]
        assert image["iw_consensus"][0][2]["threshold"] == 2
        restored = SnakePrefetcher.restore(image)
        assert canonical(restored.snapshot()) == canonical(snake.snapshot())

    def test_app_zero_required(self):
        data = SnakePrefetcher().snapshot()
        data["app_tables"] = []
        with pytest.raises(ValueError):
            SnakePrefetcher.restore(data)

    def test_version_mismatch_rejected(self):
        data = SnakePrefetcher().snapshot()
        data["v"] = 2
        with pytest.raises(ValueError):
            SnakePrefetcher.restore(data)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1 << 16), cut=st.integers(0, 120))
    def test_property_snapshot_cut_anywhere(self, seed, cut):
        """Snapshotting at *any* point of *any* stream and restoring must
        reproduce the stream's final state exactly."""
        events = random_events(seed=seed, count=120)
        straight = SnakePrefetcher()
        for event in events:
            straight.observe(*event)
        cut_run = SnakePrefetcher()
        for event in events[:cut]:
            cut_run.observe(*event)
        resumed = SnakePrefetcher.restore(json_round_trip(cut_run.snapshot()))
        for event in events[cut:]:
            resumed.observe(*event)
        assert canonical(resumed.snapshot()) == canonical(straight.snapshot())
