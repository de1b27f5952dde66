"""Naive reference for Snake's prediction half (§3.2).

``SnakePrefetcher._generate_raw`` walks a whole chain in one
``TailTable.walk_raw`` call over the CAM index.  The functions below are
the original shape it must match exactly: one ``TailTable.find`` (one
``lookups`` tick) per fan-out and per hop, the best-confirmed link picked
by a ``(has this warp, popcount)`` key, and ``PrefetchRequest`` objects
throughout.  They take the learner as their first argument and read its
tables; nothing in production calls them.
"""

from typing import List, Optional, Tuple

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailEntry
from repro.obs.events import ChainWalkEvent
from repro.prefetch.base import AccessEvent, PrefetchRequest


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
    """A Snake learner whose prediction half is :func:`generate`; its
    detection half (Head/Tail training) is the production one."""

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


def install(monkeypatch) -> None:
    """Make every Snake learner in the test predict through
    :func:`generate`."""
    monkeypatch.setattr(
        SnakePrefetcher, "_generate_raw", ReferenceSnake._generate_raw
    )
