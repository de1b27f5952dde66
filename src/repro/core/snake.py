"""The Snake prefetcher (§3).

Snake watches every demand load, maintains the Head/Tail tables, and issues
prefetches along three axes:

* **Inter-thread chains** — the paper's contribution: trained (PC1→PC2,
  stride) links are walked transitively (Fig 13) so one access prefetches
  the warp's next several loads.  Chains get priority (§3.4).
* **Intra-warp strides** — the delta between a warp's successive executions
  of the same PC, promoted after three warps agree.
* **Inter-warp strides** — the fixed delta between warps executing the same
  PC, installed once three distinct warps exhibit it.

Variant flags reproduce the paper's comparison points: ``s-Snake`` keeps
only the chains; decoupling/throttling are composed at the GPU level (see
:func:`repro.prefetch.build_setup`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.events import ChainWalkEvent
from repro.prefetch.base import Prefetcher
from repro.prefetch.stride import ConsensusTracker

from .head_table import HeadTable, SNAPSHOT_VERSION
from .tail_table import TailTable, TrainState

_NOT_TRAINED = TrainState.NOT_TRAINED  # a module global reads faster


class SnakePrefetcher(Prefetcher):
    """Variable-length chain-based prefetcher."""

    name = "snake"

    def __init__(
        self,
        head_entries: int = 32,
        tail_entries: int = 10,
        train_threshold: int = 3,
        max_chain_depth: int = 8,
        inter_warp_degree: int = 2,
        intra_degree: int = 2,
        use_chains: bool = True,
        use_intra: bool = True,
        use_inter_warp: bool = True,
        eviction: str = "lru+pop",
        per_app: bool = False,
    ) -> None:
        if max_chain_depth < 1:
            raise ValueError("max_chain_depth must be >= 1")
        if train_threshold < 1:
            raise ValueError("train_threshold must be >= 1")
        if inter_warp_degree < 0:
            raise ValueError("inter_warp_degree must be >= 0")
        if intra_degree < 0:
            raise ValueError("intra_degree must be >= 0")
        self.head = HeadTable(capacity=head_entries)
        self.tail = TailTable(
            capacity=tail_entries,
            train_threshold=train_threshold,
            eviction=eviction,
        )
        # Multi-application extension (§1): chains are detected within each
        # application, so each app gets its own Head/Tail tables.
        self.per_app = per_app
        self._head_entries = head_entries
        self._tail_entries = tail_entries
        self._eviction = eviction
        self._app_tables: Dict[int, Tuple[HeadTable, TailTable]] = {
            0: (self.head, self.tail)
        }
        self._depth_limit = max_chain_depth
        self.max_chain_depth = max_chain_depth
        self.inter_warp_degree = inter_warp_degree
        self.intra_degree = intra_degree
        self.use_chains = use_chains
        self.use_intra = use_intra
        self.use_inter_warp = use_inter_warp
        self.train_threshold = train_threshold

        # Intra-warp detection: last address per (app, warp, pc).
        self._intra_last: Dict[Tuple[int, int, int], int] = {}
        # Inter-warp detection: the last TWO (warp, addr) observations per
        # (app, pc) — the Head table's doubled columns (§3.1), which keep
        # stride detection alive under a greedy scheduler that runs one warp
        # far ahead of the others — plus consensus votes.
        self._iw_last: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._iw_consensus: Dict[Tuple[int, int], ConsensusTracker] = {}

    # ------------------------------------------------------------------
    # Multi-app table selection and throttle hooks

    def set_depth_limit(self, limit: int) -> None:
        """Throttle hook (§3.2): bound the chain-walk depth for subsequent
        requests."""
        self._depth_limit = max(1, limit)

    def _select_app(self, app_id: int) -> None:
        """Point ``self.head``/``self.tail`` at the issuing application's
        tables (no-op unless ``per_app`` is enabled)."""
        if not self.per_app:
            return
        if app_id not in self._app_tables:
            self._app_tables[app_id] = (
                HeadTable(capacity=self._head_entries),
                TailTable(
                    capacity=self._tail_entries,
                    train_threshold=self.train_threshold,
                    eviction=self._eviction,
                ),
            )
        self.head, self.tail = self._app_tables[app_id]

    # ------------------------------------------------------------------
    # One pass per observed load: training (§3.1), then generation (§3.2)

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        """Digest one access; return its deduplicated ``(base_addr, depth)``
        prefetch pairs.

        Training: the Head table's transition from the warp's previous
        load feeds the Tail's chain links, then the intra-warp and
        inter-warp stride detectors run; generation reads the same
        ``(app, pc)`` consensus tracker.  The SM and the serve core both
        call it.  ``now`` only stamps telemetry; ``cta_id`` is unused.
        """
        if self.per_app:
            self._select_app(app_id)
        tail = self.tail
        transition = self.head.update(warp_id, pc, base_addr)
        if divergent:
            # §3.4: warps whose threads do not share a uniform stride are
            # excluded from prefetching — training on them would only churn
            # the tables.  The Head entry is still advanced so the next
            # uniform load does not record a bogus transition.
            return []
        if transition is not None and transition[1] != 0:
            tail.record(warp_id, transition[0], pc, transition[1])

        if self.use_intra:
            key = (app_id, warp_id, pc)
            last = self._intra_last.get(key)
            if last is not None and base_addr != last:
                tail.record_intra(warp_id, pc, base_addr - last)
            self._intra_last[key] = base_addr

        tracker = None
        if self.use_inter_warp:
            # Not setdefault: it would build its default on every call.
            key = (app_id, pc)
            slots = self._iw_last.get(key)
            if slots is None:
                slots = self._iw_last[key] = []
            tracker = self._iw_consensus.get(key)
            for other_warp, addr in slots:
                if other_warp == warp_id:
                    continue
                gap = warp_id - other_warp
                delta = base_addr - addr
                if delta % gap == 0:
                    if tracker is None:
                        tracker = self._iw_consensus[key] = ConsensusTracker(
                            threshold=self.train_threshold
                        )
                    trained = tracker.vote(warp_id, delta // gap)
                    if trained is not None:
                        tail.record_inter_warp(pc, trained)
            slots.append((warp_id, base_addr))
            if len(slots) > 2:
                del slots[0]
        return self._generate_raw(warp_id, pc, base_addr, tracker, now)

    def _generate_raw(
        self, warp_id: int, pc: int, base_addr: int,
        tracker: Optional[ConsensusTracker], now: int,
    ) -> List[Tuple[int, int]]:
        """Deduplicated ``(base_addr, depth)`` pairs for one trained-on
        access: chain links first (§3.4 — inter-thread strides are the
        most accurate), then intra-warp, then inter-warp strides from
        ``tracker``, the access's ``(app, pc)`` consensus tracker (None
        when it has none or inter-warp strides are off).  Every trained
        link out of ``pc`` issues a depth-1 request, and the walk
        continues transitively along the best-confirmed link only
        (:meth:`TailTable.walk_raw`); targets below 0 are dropped.
        ``tests/core/reference_snake.py`` keeps the one-``find``-per-hop
        walk this must match, ``lookups`` accounting and telemetry
        included."""
        tail = self.tail
        pairs: List[Tuple[int, int]]
        if self.use_chains:
            depth_limit = self._depth_limit
            if depth_limit > self.max_chain_depth:
                depth_limit = self.max_chain_depth
            pairs = tail.walk_raw(pc, base_addr, warp_id, depth_limit)
        else:
            pairs = []
        if self.use_intra:
            # One CAM search, bucket scanned in place (find()'s accounting,
            # without its list copy).
            tail.lookups += 1
            for entry in tail._pc_index.get(pc, ()):
                if entry.t2 is not _NOT_TRAINED and entry.intra_stride:
                    stride = entry.intra_stride
                    for k in range(1, self.intra_degree + 1):
                        target = base_addr + k * stride
                        if target >= 0:
                            pairs.append((target, k))
                    break
        if tracker is not None and tracker.trained_stride is not None:
            stride = tracker.trained_stride
            for k in range(1, self.inter_warp_degree + 1):
                target = base_addr + k * stride
                if target >= 0:
                    pairs.append((target, k))

        # Inter-thread first (higher accuracy, §3.4), then de-duplicate:
        # the first depth seen for an address wins.  ``dict(pairs)`` keys
        # the addresses in first-seen order; re-assigning them in reverse
        # moves no key and leaves each one's first depth.  A list with no
        # repeated address is already its own deduplication.
        if len(pairs) > 1:
            first = dict(pairs)
            if len(first) < len(pairs):
                first.update(reversed(pairs))
                pairs = list(first.items())
        if pairs and self.obs.enabled:
            self.obs.emit(
                ChainWalkEvent(
                    cycle=now,
                    sm_id=self.obs_sm_id,
                    warp_id=warp_id,
                    pc=pc,
                    depth=max(d for _, d in pairs),
                    requests=len(pairs),
                )
            )
        return pairs

    def tables(self) -> List[Tuple[int, HeadTable, TailTable]]:
        """Every (app_id, head, tail) table pair this prefetcher owns —
        one pair unless ``per_app`` multiplied them.  The sanitizer audits
        structural invariants through this, and the fault injector uses it
        to corrupt entries in whichever table set is live."""
        return [
            (app_id, head, tail)
            for app_id, (head, tail) in sorted(self._app_tables.items())
        ]

    @property
    def trained(self) -> bool:
        if self.per_app:
            return any(t.trained for _, t in self._app_tables.values())
        return self.tail.trained

    def table_accesses(self) -> int:
        """Hardware table transactions for energy accounting: one Head
        update plus one parallel Tail CAM search per observed load (§5.5's
        two-cycle pipeline), regardless of how many software ``find`` calls
        the model uses internally."""
        if self.per_app:
            return sum(2 * h.accesses for h, _ in self._app_tables.values())
        return 2 * self.head.accesses

    # ------------------------------------------------------------------
    # Durability (snapshot/restore — repro.serve journal, warm-start sweeps)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic image of the full learner state.

        Everything the online model accumulates is captured: per-app
        Head/Tail tables, intra-warp last addresses, the inter-warp
        observation slots and consensus votes, and the throttle's current
        depth limit.  Two learners that absorbed the same event sequence
        produce byte-identical serialized snapshots, which is the property
        the :mod:`repro.serve` write-ahead journal's recovery certificate
        rests on.
        """
        return {
            "v": SNAPSHOT_VERSION,
            "config": {
                "head_entries": self._head_entries,
                "tail_entries": self._tail_entries,
                "train_threshold": self.train_threshold,
                "max_chain_depth": self.max_chain_depth,
                "inter_warp_degree": self.inter_warp_degree,
                "intra_degree": self.intra_degree,
                "use_chains": self.use_chains,
                "use_intra": self.use_intra,
                "use_inter_warp": self.use_inter_warp,
                "eviction": self._eviction,
                "per_app": self.per_app,
            },
            "depth_limit": self._depth_limit,
            "app_tables": [
                [app_id, head.snapshot(), tail.snapshot()]
                for app_id, (head, tail) in sorted(self._app_tables.items())
            ],
            "intra_last": [
                [app_id, warp_id, pc, addr]
                for (app_id, warp_id, pc), addr in self._intra_last.items()
            ],
            "iw_last": [
                [app_id, pc, [[w, a] for w, a in slots]]
                for (app_id, pc), slots in self._iw_last.items()
            ],
            "iw_consensus": [
                [app_id, pc, tracker.snapshot()]
                for (app_id, pc), tracker in self._iw_consensus.items()
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "SnakePrefetcher":
        """Rebuild a learner from :meth:`snapshot` output.

        The restored instance is behaviourally identical to the one that
        produced the snapshot: feeding both the same subsequent events
        yields the same predictions and the same next snapshot.  A
        snapshot no learner can reach raises ``ValueError``: a depth
        limit below 1, no app 0 tables, tables or consensus trackers
        whose sizes, threshold or eviction differ from the config, or
        more than two inter-warp slots for one ``(app, pc)``.
        """
        if data.get("v") != SNAPSHOT_VERSION:
            raise ValueError(
                "unsupported SnakePrefetcher snapshot version %r"
                % (data.get("v"),)
            )
        config = dict(data["config"])
        prefetcher = cls(
            head_entries=int(config["head_entries"]),
            tail_entries=int(config["tail_entries"]),
            train_threshold=int(config["train_threshold"]),
            max_chain_depth=int(config["max_chain_depth"]),
            inter_warp_degree=int(config["inter_warp_degree"]),
            intra_degree=int(config["intra_degree"]),
            use_chains=bool(config["use_chains"]),
            use_intra=bool(config["use_intra"]),
            use_inter_warp=bool(config["use_inter_warp"]),
            eviction=str(config["eviction"]),
            per_app=bool(config["per_app"]),
        )
        prefetcher._depth_limit = int(data["depth_limit"])
        if prefetcher._depth_limit < 1:
            raise ValueError(
                "depth_limit must be >= 1, got %d" % prefetcher._depth_limit
            )
        prefetcher._app_tables = {
            int(app_id): (HeadTable.restore(head), TailTable.restore(tail))
            for app_id, head, tail in data["app_tables"]
        }
        if 0 not in prefetcher._app_tables:
            raise ValueError("SnakePrefetcher snapshot lacks app 0 tables")
        threshold = prefetcher.train_threshold
        config_shape = (
            prefetcher._head_entries, prefetcher._tail_entries, threshold,
            prefetcher._eviction,
        )
        for app_id, (head, tail) in prefetcher._app_tables.items():
            shape = (head.capacity, tail.capacity, tail.train_threshold,
                     tail.eviction)
            if shape != config_shape:
                raise ValueError(
                    "app %d tables (head capacity, tail capacity, "
                    "train_threshold, eviction) %r disagree with the "
                    "learner's config %r" % (app_id, shape, config_shape)
                )
        prefetcher.head, prefetcher.tail = prefetcher._app_tables[0]
        prefetcher._intra_last = {
            (int(a), int(w), int(p)): int(addr)
            for a, w, p, addr in data["intra_last"]
        }
        prefetcher._iw_last = {
            (int(a), int(p)): [(int(w), int(addr)) for w, addr in slots]
            for a, p, slots in data["iw_last"]
        }
        for (app_id, pc), slots in prefetcher._iw_last.items():
            if len(slots) > 2:
                raise ValueError(
                    "iw_last for app %d pc %#x holds %d slots > 2"
                    % (app_id, pc, len(slots))
                )
        prefetcher._iw_consensus = {
            (int(a), int(p)): ConsensusTracker.restore(tracker)
            for a, p, tracker in data["iw_consensus"]
        }
        for (app_id, pc), tracker in prefetcher._iw_consensus.items():
            if tracker.threshold != threshold:
                raise ValueError(
                    "iw_consensus for app %d pc %#x has threshold %d, "
                    "learner train_threshold %d"
                    % (app_id, pc, tracker.threshold, threshold)
                )
        return prefetcher
