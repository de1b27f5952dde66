"""Naive reference for Snake's training (§3.1) and prediction (§3.2).

``SnakePrefetcher._generate_raw`` walks a whole chain in one
``TailTable.walk_raw`` call over the CAM index: one pass over the
trigger PC's bucket gives both the depth-1 fan-out and the first hop's
best link, a loop is caught by a repeated hop origin PC, a one-entry
bucket skips the tie-break key, and ``lookups`` is ticked once per walk.
Deduplication builds one ``dict`` and only when an address repeats.
The prediction functions below are the original shape it must match
exactly: one ``TailTable.find`` (one ``lookups`` tick) per fan-out and
per hop, the best-confirmed link picked by a ``(has this warp,
popcount)`` key, a loop caught by a repeated ``(pc1, pc2)`` pair, and
a first-seen deduplication pass over every ``(base_addr, depth)`` pair.

``SnakePrefetcher.observe`` trains and predicts in one body that
looks each ``(app, pc)`` consensus tracker up once per access and hands
it to generation; it and the Tail table's ``record_intra`` /
``record_inter_warp`` scan CAM buckets in place, advance the LRU tick
inline and build a tracker or slot list only for a missing key; the
Tail table counts intra-stride voters and remembers ``(stride, warp)``
pairs, evicts through one ``attrgetter`` sort and removes entries with
``list.remove``.  The training code below is the original shape, a
separate step before generation: ``setdefault(key, <new object>)`` on
every vote, one voter *set* per (entry, stride) in
:class:`ReferenceTailTable`, bucket copies through
``find()``, one :func:`touch` per updated entry, a lambda-keyed LRU sort
plus ``(popcount, last_use)`` minimum on eviction and identity scans on
removal.

The functions take the learner (or its Tail table) as their first
argument and read and write its tables; nothing in production calls
them.
"""

import math
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core import snake as snake_module
from repro.core.head_table import HeadTable
from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailEntry, TailTable, TrainState
from repro.obs.events import ChainWalkEvent
from repro.prefetch.stride import ConsensusTracker


def touch(tail: TailTable, entry: TailEntry) -> None:
    """Advance the table's LRU clock and stamp ``entry`` with it."""
    tail._tick += 1
    entry.last_use = tail._tick


class ReferenceTailTable(TailTable):
    """A Tail table whose training, eviction and removal are the original
    naive code.  ``_intra_votes`` maps each stride to its set of voters
    (``_intra_voters`` stays empty), so the snapshot and restore
    overrides read and write those sets directly."""

    def _remove(self, entry: TailEntry) -> None:
        for i, candidate in enumerate(self._entries):
            if candidate is entry:
                del self._entries[i]
                break
        bucket = self._pc_index.get(entry.pc1, [])
        for i, candidate in enumerate(bucket):
            if candidate is entry:
                del bucket[i]
                break
        if not bucket:
            self._pc_index.pop(entry.pc1, None)

    def _evict_one(self) -> None:
        self.evictions += 1
        if self.eviction == "pop":
            victim = min(self._entries, key=lambda e: (e.popcount, e.last_use))
        else:
            group_size = max(2, math.ceil(len(self._entries) / 4))
            lru_group = sorted(self._entries, key=lambda e: e.last_use)[:group_size]
            victim = min(lru_group, key=lambda e: (e.popcount, e.last_use))
        self._remove(victim)

    def record_intra(self, warp_id: int, pc: int, stride: int) -> None:
        """``TailTable.record_intra`` through two ``find`` calls: create a
        self-link when no entry for ``pc`` exists, then vote on every
        entry of the PC and promote the stride ``train_threshold`` warps
        agree on."""
        if not self.find(pc):
            entry = TailEntry(pc1=pc, pc2=pc, inter_thread_stride=stride)
            if len(self._entries) >= self.capacity:
                self._evict_one()
            self._install(entry)
        for entry in self.find(pc):
            votes = entry._intra_votes.setdefault(stride, set())
            votes.add(warp_id)
            if entry.intra_stride == stride:
                if len(votes) >= self.train_threshold:
                    entry.t2 = TrainState.TRAINED
            elif len(votes) >= len(
                entry._intra_votes.get(entry.intra_stride, set())
            ):
                entry.intra_stride = stride
                if len(votes) >= self.train_threshold:
                    entry.t2 = TrainState.TRAINED
                elif entry.t2 is not TrainState.TRAINED:
                    entry.t2 = TrainState.NOT_TRAINED
            touch(self, entry)

    def record_inter_warp(self, pc: int, stride: int) -> None:
        """``TailTable.record_inter_warp`` through one ``find`` call."""
        for entry in self.find(pc):
            entry.inter_warp_stride = stride
            touch(self, entry)

    def snapshot(self) -> Dict[str, Any]:
        image = super().snapshot()
        for raw, entry in zip(image["entries"], self._entries):
            raw["intra_votes"] = [
                [stride, sorted(voters)]
                for stride, voters in entry._intra_votes.items()
            ]
        return image

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "ReferenceTailTable":
        table = super().restore(data)
        for entry, raw in zip(table._entries, data["entries"]):
            entry._intra_voters = set()
            entry._intra_votes = {}
            for stride, voters in raw["intra_votes"]:
                entry._intra_votes[int(stride)] = {int(v) for v in voters}
        return table


def vote(tracker: ConsensusTracker, voter: int, stride: int) -> Optional[int]:
    """``ConsensusTracker.vote`` with a fresh vote set per call."""
    if stride == 0:
        return tracker.trained_stride
    voters = tracker._votes.setdefault(stride, set())
    voters.add(voter)
    if len(voters) >= tracker.threshold:
        tracker.trained_stride = stride
    return tracker.trained_stride


def detect(
    learner: SnakePrefetcher, warp_id: int, pc: int, base_addr: int,
    app_id: int,
) -> None:
    """The training half of ``SnakePrefetcher.observe`` with a
    throwaway slot list and ``ConsensusTracker`` per ``setdefault`` and
    the reference Tail updates above."""
    tail = learner.tail
    assert isinstance(tail, ReferenceTailTable)
    transition = learner.head.update(warp_id, pc, base_addr)
    if transition is not None and transition[1] != 0:
        tail.record(warp_id, transition[0], pc, transition[1])

    if learner.use_intra:
        key = (app_id, warp_id, pc)
        last = learner._intra_last.get(key)
        if last is not None and base_addr != last:
            tail.record_intra(warp_id, pc, base_addr - last)
        learner._intra_last[key] = base_addr

    if learner.use_inter_warp:
        slots = learner._iw_last.setdefault((app_id, pc), [])
        for other_warp, addr in slots:
            if other_warp == warp_id:
                continue
            gap = warp_id - other_warp
            delta = base_addr - addr
            if gap != 0 and delta % gap == 0:
                tracker = learner._iw_consensus.setdefault(
                    (app_id, pc),
                    ConsensusTracker(threshold=learner.train_threshold),
                )
                trained = vote(tracker, warp_id, delta // gap)
                if trained is not None:
                    tail.record_inter_warp(pc, trained)
        slots.append((warp_id, base_addr))
        if len(slots) > 2:
            del slots[0]


def prefetchable_link(
    learner: SnakePrefetcher, pc: int, warp_id: int
) -> Optional[TailEntry]:
    """The best trained link out of ``pc``: once promoted, a link serves
    *all* future warps (§3.2).  Among competing links for the same PC,
    prefer one this warp confirmed, then the most-confirmed one."""
    best = None
    best_key = None
    for entry in learner.tail.find(pc):
        if not entry.t1.prefetchable:
            continue
        key = (entry.has_warp(warp_id), entry.popcount)
        if best is None or key > best_key:
            best, best_key = entry, key
    return best


def chain_requests(
    learner: SnakePrefetcher, warp_id: int, pc: int, base_addr: int
) -> List[Tuple[int, int]]:
    """Walk the chain starting at the current PC (Fig 13).

    Different warp groups may have confirmed *different* strides for the
    same PC pair (§3.4 — e.g. a tiled kernel's in-tile step and its
    tile-boundary jump), so every trained link out of the triggering PC
    issues a depth-1 request; the walk then continues transitively along
    the best-confirmed link only.
    """
    requests: List[Tuple[int, int]] = []
    for entry in learner.tail.find(pc):
        if not entry.t1.prefetchable:
            continue
        target = base_addr + entry.inter_thread_stride
        if target >= 0:
            requests.append((target, 1))

    addr = base_addr
    visited = set()
    effective_depth = min(learner.max_chain_depth, learner._depth_limit)
    for depth in range(1, effective_depth + 1):
        entry = prefetchable_link(learner, pc, warp_id)
        if entry is None or (entry.pc1, entry.pc2) in visited:
            break
        visited.add((entry.pc1, entry.pc2))
        addr = addr + entry.inter_thread_stride
        if addr < 0:
            break
        requests.append((addr, depth))
        pc = entry.pc2
    return requests


def intra_requests(
    learner: SnakePrefetcher, pc: int, base_addr: int
) -> List[Tuple[int, int]]:
    for entry in learner.tail.find(pc):
        if entry.t2.prefetchable and entry.intra_stride:
            return [
                (base_addr + k * entry.intra_stride, k)
                for k in range(1, learner.intra_degree + 1)
                if base_addr + k * entry.intra_stride >= 0
            ]
    return []


def inter_warp_requests(
    learner: SnakePrefetcher, base_addr: int,
    tracker: Optional[ConsensusTracker],
) -> List[Tuple[int, int]]:
    """Inter-warp requests from the access's ``(app, pc)`` consensus
    tracker (None when it has none)."""
    if tracker is None or tracker.trained_stride is None:
        return []
    stride = tracker.trained_stride
    requests = []
    for k in range(1, learner.inter_warp_degree + 1):
        target = base_addr + k * stride
        if target >= 0:
            requests.append((target, k))
    return requests


def generate(
    learner: SnakePrefetcher, warp_id: int, pc: int, base_addr: int,
    tracker: Optional[ConsensusTracker], now: int = 0,
) -> List[Tuple[int, int]]:
    """Deduplicated ``(base_addr, depth)`` requests for one (already
    trained-on) access: chains first (higher accuracy, §3.4), then
    intra-warp, then inter-warp from ``tracker``, with the learner's
    ``ChainWalkEvent`` telemetry."""
    requests: List[Tuple[int, int]] = []
    if learner.use_chains:
        requests.extend(chain_requests(learner, warp_id, pc, base_addr))
    if learner.use_intra:
        requests.extend(intra_requests(learner, pc, base_addr))
    if learner.use_inter_warp:
        requests.extend(inter_warp_requests(learner, base_addr, tracker))

    seen = set()
    unique: List[Tuple[int, int]] = []
    for request in requests:
        if request[0] not in seen:
            seen.add(request[0])
            unique.append(request)
    if unique and learner.obs.enabled:
        learner.obs.emit(
            ChainWalkEvent(
                cycle=now,
                sm_id=learner.obs_sm_id,
                warp_id=warp_id,
                pc=pc,
                depth=max(depth for _, depth in unique),
                requests=len(unique),
            )
        )
    return unique


def peek(
    learner: SnakePrefetcher, warp_id: int, pc: int, base_addr: int,
    app_id: int = 0,
) -> List[int]:
    """The serve ``predict`` read, naively: :func:`generate` on the
    ``(app, pc)`` consensus tracker looked up here, with the Tail's
    ``lookups`` restored; nothing for an app that has no tables."""
    if learner.per_app and app_id not in learner._app_tables:
        return []
    learner._select_app(app_id)
    saved = learner.tail.lookups
    try:
        requests = generate(
            learner, warp_id, pc, base_addr,
            learner._iw_consensus.get((app_id, pc)),
        )
    finally:
        learner.tail.lookups = saved
    return [addr for addr, _ in requests]


class ReferenceSnake(SnakePrefetcher):
    """A Snake learner that trains through :func:`detect` into
    :class:`ReferenceTailTable` tables and predicts through :func:`generate`;
    the Head table and ``TailTable.record`` are the production ones."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tail = ReferenceTailTable(
            capacity=self._tail_entries,
            train_threshold=self.train_threshold,
            eviction=self._eviction,
        )
        self._app_tables[0] = (self.head, self.tail)

    def _select_app(self, app_id: int) -> None:
        if self.per_app and app_id not in self._app_tables:
            self._app_tables[app_id] = (
                HeadTable(capacity=self._head_entries),
                ReferenceTailTable(
                    capacity=self._tail_entries,
                    train_threshold=self.train_threshold,
                    eviction=self._eviction,
                ),
            )
        super()._select_app(app_id)

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "ReferenceSnake":
        learner = super().restore(data)
        assert isinstance(learner, ReferenceSnake)
        for app_id, _, tail in data["app_tables"]:
            head = learner._app_tables[int(app_id)][0]
            learner._app_tables[int(app_id)] = (
                head, ReferenceTailTable.restore(tail)
            )
        learner.head, learner.tail = learner._app_tables[0]
        return learner

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        """Training through :func:`detect`, then generation through
        :meth:`_generate_raw` on the consensus tracker looked up anew."""
        if self.per_app:
            self._select_app(app_id)
        if divergent:
            self.head.update(warp_id, pc, base_addr)
            return []
        detect(self, warp_id, pc, base_addr, app_id)
        return self._generate_raw(
            warp_id, pc, base_addr, self._iw_consensus.get((app_id, pc)), now,
        )

    def _generate_raw(
        self, warp_id: int, pc: int, base_addr: int,
        tracker: Optional[ConsensusTracker], now: int,
    ) -> List[Tuple[int, int]]:
        return generate(self, warp_id, pc, base_addr, tracker, now)


def install(monkeypatch) -> Counter:
    """Make every Snake learner in the test train through :func:`detect`
    into :class:`ReferenceTailTable` tables and predict through
    :func:`generate`, in :meth:`ReferenceSnake.observe` and in the
    generation entry point a serve ``predict`` reads through.  Returns a
    counter of the ``"detect"`` and ``"generate"`` calls that reached
    them, so a test can show the references really ran."""
    reached: Counter = Counter()
    monkeypatch.setattr(snake_module, "TailTable", ReferenceTailTable)

    def counted_observe(learner, warp_id, pc, base_addr, app_id=0,
                        divergent=False, now=0, cta_id=0):
        reached["detect"] += not divergent
        return ReferenceSnake.observe(
            learner, warp_id, pc, base_addr, app_id, divergent, now, cta_id,
        )

    def counted_generate(learner, *args):
        reached["generate"] += 1
        return ReferenceSnake._generate_raw(learner, *args)

    monkeypatch.setattr(SnakePrefetcher, "observe", counted_observe)
    monkeypatch.setattr(SnakePrefetcher, "_generate_raw", counted_generate)
    return reached
