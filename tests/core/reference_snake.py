"""Naive reference for Snake's training (§3.1) and prediction (§3.2).

``SnakePrefetcher._generate_raw`` walks a whole chain in one
``TailTable.walk_raw`` call over the CAM index.  The prediction functions
below are the original shape it must match exactly: one
``TailTable.find`` (one ``lookups`` tick) per fan-out and per hop, the
best-confirmed link picked by a ``(has this warp, popcount)`` key, and
``PrefetchRequest`` objects throughout.

``SnakePrefetcher._detect`` and the Tail table's ``record_intra`` /
``record_inter_warp`` scan CAM buckets in place, advance the LRU tick
inline and build a tracker, slot list or vote set only for a missing
key.  The training functions below are their original shape:
``setdefault(key, <new object>)`` on every vote, bucket copies through
``find()`` and one :func:`touch` per updated entry.

They take the learner (or its Tail table) as their first argument and
read and write its tables; nothing in production calls them.
"""

from collections import Counter
from typing import List, Optional, Tuple

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailEntry, TailTable, TrainState
from repro.obs.events import ChainWalkEvent
from repro.prefetch.base import AccessEvent, PrefetchRequest
from repro.prefetch.stride import ConsensusTracker


def touch(tail: TailTable, entry: TailEntry) -> None:
    """Advance the table's LRU clock and stamp ``entry`` with it."""
    tail._tick += 1
    entry.last_use = tail._tick


def record_intra(tail: TailTable, warp_id: int, pc: int, stride: int) -> None:
    """``TailTable.record_intra`` through two ``find`` calls: create a
    self-link when no entry for ``pc`` exists, then vote on every entry
    of the PC and promote the stride ``train_threshold`` warps agree on."""
    if not tail.find(pc):
        entry = TailEntry(pc1=pc, pc2=pc, inter_thread_stride=stride)
        if len(tail._entries) >= tail.capacity:
            tail._evict_one()
        tail._install(entry)
    for entry in tail.find(pc):
        votes = entry._intra_votes.setdefault(stride, set())
        votes.add(warp_id)
        if entry.intra_stride == stride:
            if len(votes) >= tail.train_threshold:
                entry.t2 = TrainState.TRAINED
        elif len(votes) >= len(
            entry._intra_votes.get(entry.intra_stride, set())
        ):
            entry.intra_stride = stride
            if len(votes) >= tail.train_threshold:
                entry.t2 = TrainState.TRAINED
            elif entry.t2 is not TrainState.TRAINED:
                entry.t2 = TrainState.NOT_TRAINED
        touch(tail, entry)


def record_inter_warp(tail: TailTable, pc: int, stride: int) -> None:
    """``TailTable.record_inter_warp`` through one ``find`` call."""
    for entry in tail.find(pc):
        entry.inter_warp_stride = stride
        touch(tail, entry)


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
    """``SnakePrefetcher._detect`` with a throwaway slot list and
    ``ConsensusTracker`` per ``setdefault`` and the reference Tail
    updates above."""
    tail = learner.tail
    transition = learner.head.update(warp_id, pc, base_addr)
    if transition is not None and transition[1] != 0:
        tail.record(warp_id, transition[0], pc, transition[1])

    if learner.use_intra:
        key = (app_id, warp_id, pc)
        last = learner._intra_last.get(key)
        if last is not None and base_addr != last:
            record_intra(tail, warp_id, pc, base_addr - last)
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
                    record_inter_warp(tail, pc, trained)
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
    learner: SnakePrefetcher, event: AccessEvent
) -> List[PrefetchRequest]:
    """Walk the chain starting at the current PC (Fig 13).

    Different warp groups may have confirmed *different* strides for the
    same PC pair (§3.4 — e.g. a tiled kernel's in-tile step and its
    tile-boundary jump), so every trained link out of the triggering PC
    issues a depth-1 request; the walk then continues transitively along
    the best-confirmed link only.
    """
    requests: List[PrefetchRequest] = []
    for entry in learner.tail.find(event.pc):
        if not entry.t1.prefetchable:
            continue
        target = event.base_addr + entry.inter_thread_stride
        if target >= 0:
            requests.append(PrefetchRequest(base_addr=target, depth=1))

    pc, addr = event.pc, event.base_addr
    visited = set()
    effective_depth = min(learner.max_chain_depth, learner._depth_limit)
    for depth in range(1, effective_depth + 1):
        entry = prefetchable_link(learner, pc, event.warp_id)
        if entry is None or (entry.pc1, entry.pc2) in visited:
            break
        visited.add((entry.pc1, entry.pc2))
        addr = addr + entry.inter_thread_stride
        if addr < 0:
            break
        requests.append(PrefetchRequest(base_addr=addr, depth=depth))
        pc = entry.pc2
    return requests


def intra_requests(
    learner: SnakePrefetcher, event: AccessEvent
) -> List[PrefetchRequest]:
    for entry in learner.tail.find(event.pc):
        if entry.t2.prefetchable and entry.intra_stride:
            return [
                PrefetchRequest(
                    base_addr=event.base_addr + k * entry.intra_stride, depth=k
                )
                for k in range(1, learner.intra_degree + 1)
                if event.base_addr + k * entry.intra_stride >= 0
            ]
    return []


def inter_warp_requests(
    learner: SnakePrefetcher, event: AccessEvent
) -> List[PrefetchRequest]:
    tracker = learner._iw_consensus.get((event.app_id, event.pc))
    if tracker is None or tracker.trained_stride is None:
        return []
    stride = tracker.trained_stride
    requests = []
    for k in range(1, learner.inter_warp_degree + 1):
        target = event.base_addr + k * stride
        if target >= 0:
            requests.append(PrefetchRequest(base_addr=target, depth=k))
    return requests


def generate(
    learner: SnakePrefetcher, event: AccessEvent
) -> List[PrefetchRequest]:
    """Deduplicated requests for one (already trained-on) access: chains
    first (higher accuracy, §3.4), then intra-warp, then inter-warp, with
    the learner's ``ChainWalkEvent`` telemetry."""
    requests: List[PrefetchRequest] = []
    if learner.use_chains:
        requests.extend(chain_requests(learner, event))
    if learner.use_intra:
        requests.extend(intra_requests(learner, event))
    if learner.use_inter_warp:
        requests.extend(inter_warp_requests(learner, event))

    seen = set()
    unique: List[PrefetchRequest] = []
    for request in requests:
        if request.base_addr not in seen:
            seen.add(request.base_addr)
            unique.append(request)
    if unique and learner.obs.enabled:
        learner.obs.emit(
            ChainWalkEvent(
                cycle=event.now,
                sm_id=learner.obs_sm_id,
                warp_id=event.warp_id,
                pc=event.pc,
                depth=max(r.depth for r in unique),
                requests=len(unique),
            )
        )
    return unique


class ReferenceSnake(SnakePrefetcher):
    """A Snake learner that trains through :func:`detect` and predicts
    through :func:`generate`; the Head table and ``TailTable.record``
    are the production ones."""

    def _detect(
        self, warp_id: int, pc: int, base_addr: int, app_id: int
    ) -> None:
        detect(self, warp_id, pc, base_addr, app_id)

    def _generate_raw(
        self, warp_id: int, pc: int, base_addr: int, app_id: int, now: int
    ) -> List[Tuple[int, int]]:
        return [
            (r.base_addr, r.depth)
            for r in generate(self, AccessEvent(
                warp_id=warp_id, cta_id=0, pc=pc, base_addr=base_addr,
                line_addr=base_addr, now=now, app_id=app_id,
            ))
        ]


def install(monkeypatch) -> Counter:
    """Make every Snake learner in the test train through :func:`detect`
    and predict through :func:`generate`.  Returns a counter of the
    ``"detect"`` and ``"generate"`` calls that reached them, so a test can
    show the references really ran."""
    reached: Counter = Counter()

    def counted_detect(learner, *args):
        reached["detect"] += 1
        ReferenceSnake._detect(learner, *args)

    def counted_generate(learner, *args):
        reached["generate"] += 1
        return ReferenceSnake._generate_raw(learner, *args)

    monkeypatch.setattr(SnakePrefetcher, "_detect", counted_detect)
    monkeypatch.setattr(SnakePrefetcher, "_generate_raw", counted_generate)
    return reached
