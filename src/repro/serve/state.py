"""The service's deterministic core: sessions, shards, breakers, fallback.

Everything in this module is sans-I/O and **replay-deterministic**: the
next state is a pure function of the current state and the applied
record.  That single property is what the write-ahead journal's recovery
certificate rests on — a restarted service that replays the journal must
reach a byte-identical state digest — so the module is explicit about
which operations mutate:

* :meth:`ServiceState.admit` mutates only when it creates (and possibly
  evicts) a session; the caller journals exactly those admits.
* :meth:`ServiceState.apply` always mutates and is always journaled.
* :meth:`ServiceState.predict`, :meth:`stats`, :meth:`audit`,
  :meth:`snapshot` are read-only by construction — a prediction query
  must never perturb the digest, or replay certification breaks.

Consequently the counters serialized into the snapshot cover *journaled*
operations only; purely-served traffic (denials, sheds, predictions) is
tallied at the asyncio layer, outside the durable state.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.snake import SnakePrefetcher
from repro.prefetch.stride import StrideTracker

STATE_VERSION = 1

_BREAKER_STATES = ("closed", "open", "half-open")


@dataclass(frozen=True)
class ServeConfig:
    """Service-wide knobs, frozen so a config can never drift from the
    value recorded in the snapshot it governs."""

    shards: int = 4             # learner shards per session (pc % shards)
    max_sessions: int = 64      # memory-pressure ceiling on live sessions
    min_idle_evict: int = 256   # events a session must sit idle to be evictable
    breaker_threshold: int = 1  # consecutive shard faults that open the breaker
    breaker_cooldown: int = 128 # applied events while open before a trial
    audit_every: int = 256      # shard structural audit cadence (applied events)
    fallback_capacity: int = 1024  # (warp, pc) stride trackers per session
    fallback_degree: int = 2    # degraded-mode prefetch degree
    head_entries: int = 32      # per-shard learner table sizes (paper defaults)
    tail_entries: int = 10
    train_threshold: int = 3
    max_chain_depth: int = 8

    def __post_init__(self) -> None:
        for name in ("shards", "max_sessions", "breaker_cooldown",
                     "audit_every", "fallback_capacity", "fallback_degree",
                     "head_entries", "tail_entries", "train_threshold",
                     "max_chain_depth"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1, got %r"
                                 % (name, getattr(self, name)))
        if self.min_idle_evict < 0 or self.breaker_threshold < 1:
            raise ValueError("invalid eviction/breaker thresholds")

    def make_learner(self) -> SnakePrefetcher:
        return SnakePrefetcher(
            head_entries=self.head_entries,
            tail_entries=self.tail_entries,
            train_threshold=self.train_threshold,
            max_chain_depth=self.max_chain_depth,
        )


def peek_predictions(learner: SnakePrefetcher, warp: int, pc: int,
                     addr: int, app: int = 0, now: int = 0) -> List[int]:
    """Read-only prediction from a Snake learner.

    Runs :meth:`SnakePrefetcher.observe`'s generation body
    (``_generate_raw``: chains, intra-warp, inter-warp, chain-first dedup)
    without the training before it, on the ``(app, pc)`` consensus
    tracker looked up here.  The Tail CAM's lookup counter is restored
    afterwards because it is serialized into the snapshot — a predict
    must not move the state digest.
    """
    if learner.per_app and app not in learner._app_tables:
        return []
    learner._select_app(app)
    tail = learner.tail
    saved = tail.lookups
    tracker = learner._iw_consensus.get((app, pc))
    try:
        pairs = learner._generate_raw(warp, pc, addr, tracker, now)
    finally:
        tail.lookups = saved
    return [target for target, _ in pairs]


class StrideFallback:
    """The degraded-mode answer path: classic per-(warp, pc) two-delta
    stride detection, LRU-bounded.  Cheap, boring, and never faults —
    exactly what you want serving while a learner shard recovers."""

    def __init__(self, capacity: int, degree: int) -> None:
        self.capacity = capacity
        self.degree = degree
        self._trackers: "OrderedDict[Tuple[int, int], StrideTracker]" = OrderedDict()

    def update(self, warp: int, pc: int, addr: int) -> None:
        key = (warp, pc)
        tracker = self._trackers.get(key)
        if tracker is None:
            if len(self._trackers) >= self.capacity:
                self._trackers.popitem(last=False)
            tracker = self._trackers[key] = StrideTracker()
        else:
            self._trackers.move_to_end(key)
        tracker.update(addr)

    def predict(self, warp: int, pc: int, addr: int) -> List[int]:
        """Pure read: no LRU touch, no tracker mutation."""
        tracker = self._trackers.get((warp, pc))
        if tracker is None or tracker.stride is None or tracker.confirmations < 1:
            return []
        return [
            addr + k * tracker.stride
            for k in range(1, self.degree + 1)
            if addr + k * tracker.stride >= 0
        ]

    def snapshot(self) -> List[List[Any]]:
        return [
            [warp, pc, t.last_addr, t.stride, t.confirmations]
            for (warp, pc), t in self._trackers.items()
        ]

    @classmethod
    def restore(cls, capacity: int, degree: int,
                data: List[List[Any]]) -> "StrideFallback":
        if len(data) > capacity:
            raise ValueError(
                "fallback snapshot holds %d trackers, capacity is %d"
                % (len(data), capacity)
            )
        fallback = cls(capacity, degree)
        for warp, pc, last_addr, stride, confirmations in data:
            fallback._trackers[(int(warp), int(pc))] = StrideTracker(
                last_addr=None if last_addr is None else int(last_addr),
                stride=None if stride is None else int(stride),
                confirmations=int(confirmations),
            )
        return fallback


@dataclass
class ShardBreaker:
    """Circuit breaker guarding one learner shard's *answer path*.

    The shard keeps training while the breaker is open (that is how it
    recovers); the breaker only decides whether its answers are trusted.
    Time is the service's logical event sequence, never the wall clock,
    so breaker behaviour replays exactly.
    """

    state: str = "closed"
    failures: int = 0
    opened_at: int = 0
    opens: int = 0

    def answer_from_learner(self, seq: int, cooldown: int) -> bool:
        """Mutating check used by ``apply``: an open breaker past its
        cooldown transitions to half-open and admits one trial."""
        if self.state == "open":
            if seq - self.opened_at >= cooldown:
                self.state = "half-open"
                return True
            return False
        return True

    def would_answer_from_learner(self, seq: int, cooldown: int) -> bool:
        """Pure variant for the read-only predict path."""
        if self.state == "open":
            return seq - self.opened_at >= cooldown
        return True

    def on_ok(self) -> bool:
        """A trusted learner answer succeeded; returns True when this
        closed a half-open breaker (a ``breaker_close`` event)."""
        closed_now = self.state == "half-open"
        self.state = "closed"
        self.failures = 0
        return closed_now

    def on_fault(self, seq: int, threshold: int) -> bool:
        """A shard fault; returns True when this opened the breaker."""
        self.failures += 1
        if self.state == "half-open" or self.failures >= threshold:
            opened_now = self.state != "open"
            self.state = "open"
            self.opened_at = seq
            if opened_now:
                self.opens += 1
            return opened_now
        return False

    def snapshot(self) -> List[Any]:
        return [self.state, self.failures, self.opened_at, self.opens]

    @classmethod
    def restore(cls, data: List[Any]) -> "ShardBreaker":
        state, failures, opened_at, opens = data
        if state not in _BREAKER_STATES:
            raise ValueError("unknown breaker state %r" % (state,))
        return cls(state=str(state), failures=int(failures),
                   opened_at=int(opened_at), opens=int(opens))


class ClientSession:
    """One client's learner state: ``shards`` Snake instances (requests
    route by ``pc % shards``), a breaker per shard, and the shared stride
    fallback."""

    def __init__(self, config: ServeConfig) -> None:
        self.shards: List[SnakePrefetcher] = [
            config.make_learner() for _ in range(config.shards)
        ]
        self.breakers: List[ShardBreaker] = [
            ShardBreaker() for _ in range(config.shards)
        ]
        self.fallback = StrideFallback(
            config.fallback_capacity, config.fallback_degree
        )
        self.last_active = 0   # service seq of the last applied event
        self.applied = 0
        self.faults = 0

    def trained_links(self) -> int:
        """Confirmed chain links across shards — the session's training
        investment, which the eviction policy protects (the Tail-table
        idiom: evict the least-trained of the least-recent)."""
        return sum(
            1
            for learner in self.shards
            for _, _, tail in learner.tables()
            for entry in tail.entries()
            if entry.t1.prefetchable
        )

    def snapshot(self) -> Dict[str, Any]:
        return {
            "last_active": self.last_active,
            "applied": self.applied,
            "faults": self.faults,
            "shards": [learner.snapshot() for learner in self.shards],
            "breakers": [breaker.snapshot() for breaker in self.breakers],
            "fallback": self.fallback.snapshot(),
        }

    @classmethod
    def restore(cls, config: ServeConfig,
                data: Mapping[str, Any]) -> "ClientSession":
        session = cls.__new__(cls)
        session.shards = [
            SnakePrefetcher.restore(shard) for shard in data["shards"]
        ]
        session.breakers = [
            ShardBreaker.restore(b) for b in data["breakers"]
        ]
        if len(session.shards) != config.shards:
            raise ValueError(
                "session snapshot holds %d shards, config says %d"
                % (len(session.shards), config.shards)
            )
        if len(session.breakers) != config.shards:
            raise ValueError(
                "session snapshot holds %d breakers, config says %d shards"
                % (len(session.breakers), config.shards)
            )
        session.fallback = StrideFallback.restore(
            config.fallback_capacity, config.fallback_degree, data["fallback"]
        )
        session.last_active = int(data["last_active"])
        session.applied = int(data["applied"])
        session.faults = int(data["faults"])
        return session


@dataclass
class AdmitResult:
    ok: bool
    created: bool = False       # True → the caller must journal this admit
    evicted: Optional[str] = None
    reason: str = ""            # "busy" on denial


@dataclass(slots=True)
class ApplyResult:
    predictions: List[int] = field(default_factory=list)
    degraded: bool = False
    shard: int = 0
    fault: str = ""             # non-empty when the shard faulted this event
    breaker_opened: bool = False
    breaker_closed: bool = False


class ServiceState:
    """The whole service's durable state and its transition rules."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.seq = 0  # logical event counter; advanced only by journaled ops
        self.sessions: "OrderedDict[str, ClientSession]" = OrderedDict()
        self.counters: Dict[str, int] = {
            "applied": 0,
            "admitted": 0,
            "evicted": 0,
            "degraded": 0,
            "faults": 0,
        }

    # ------------------------------------------------------------------
    # Admission (mutates only on session creation)

    def _eviction_victim(self) -> Optional[str]:
        """The Tail-table policy transplanted to sessions: among the
        least-recently-active quarter, the idle session with the fewest
        trained links loses.  Active sessions are never evicted — a full
        table of busy clients is a ``busy`` denial instead."""
        ordered = sorted(
            self.sessions.items(),
            key=lambda item: (item[1].last_active, item[0]),
        )
        group = ordered[:max(2, math.ceil(len(ordered) / 4))]
        idle = [
            (client, session)
            for client, session in group
            if self.seq - session.last_active >= self.config.min_idle_evict
        ]
        if not idle:
            return None
        victim, _ = min(
            idle,
            key=lambda item: (item[1].trained_links(),
                              item[1].last_active, item[0]),
        )
        return victim

    def admit(self, client: str) -> AdmitResult:
        if client in self.sessions:
            # Reconnect: pure read, nothing to journal.
            return AdmitResult(ok=True)
        evicted: Optional[str] = None
        if len(self.sessions) >= self.config.max_sessions:
            evicted = self._eviction_victim()
            if evicted is None:
                return AdmitResult(ok=False, reason="busy")
            del self.sessions[evicted]
            self.counters["evicted"] += 1
        self.seq += 1
        session = ClientSession(self.config)
        session.last_active = self.seq
        self.sessions[client] = session
        self.counters["admitted"] += 1
        return AdmitResult(ok=True, created=True, evicted=evicted)

    # ------------------------------------------------------------------
    # The one always-journaled mutation

    def apply(self, client: str, warp: int, pc: int, addr: int,
              app: int = 0) -> Optional[ApplyResult]:
        """Absorb one access record; returns None when the session does
        not exist (evicted or never admitted — the caller NACKs)."""
        session = self.sessions.get(client)
        if session is None:
            return None
        config = self.config
        counters = self.counters
        seq = self.seq = self.seq + 1
        session.last_active = seq
        applied = session.applied = session.applied + 1
        counters["applied"] += 1

        shard_index = pc % config.shards
        breaker = session.breakers[shard_index]
        fault = ""
        breaker_opened = breaker_closed = False
        # Steady state: a closed breaker with no failures answers from the
        # learner, and ``on_ok`` would leave it exactly as it is, so both
        # calls are skipped.  Any other breaker is asked, and its answer
        # is settled through ``on_ok`` or ``on_fault``.
        from_learner = steady = (
            breaker.state == "closed" and not breaker.failures
        )
        trial = False
        if not steady:
            # The half-open trial opens here and MUST be settled by on_ok /
            # on_fault on every path (SL703); nothing that can raise may
            # sit between opening it and entering the try block.
            trial = breaker.answer_from_learner(seq, config.breaker_cooldown)
        try:
            learner = session.shards[shard_index]
            learner_predictions: List[int] = [
                target for target, _ in
                learner.observe(warp, pc, addr, app, False, seq)
            ]
            if applied % config.audit_every == 0:
                violations: List[str] = []
                for app_id, head, tail in learner.tables():
                    violations.extend(
                        tail.structural_violations("shard%d/app%d"
                                                   % (shard_index, app_id))
                    )
                if violations:
                    raise RuntimeError(
                        "structural audit failed: " + "; ".join(violations)
                    )
        except Exception as exc:  # noqa: BLE001 — any learner misbehaviour
            # Trip the breaker FIRST — settling the half-open trial must
            # not depend on the recovery steps below succeeding (SL703) —
            # then replace the wounded shard with a fresh learner (it
            # retrains from live traffic while the breaker serves fallback
            # answers).  Deterministic: the same state and input fault
            # identically during journal replay.
            breaker_opened = breaker.on_fault(seq, config.breaker_threshold)
            fault = "%s: %s" % (type(exc).__name__, exc)
            session.shards[shard_index] = config.make_learner()
            session.faults += 1
            counters["faults"] += 1
            from_learner = False
        else:
            if trial:
                breaker_closed = breaker.on_ok()
                from_learner = True

        fallback = session.fallback
        fallback.update(warp, pc, addr)
        if from_learner:
            return ApplyResult(learner_predictions, False, shard_index,
                               fault, breaker_opened, breaker_closed)
        counters["degraded"] += 1
        return ApplyResult(fallback.predict(warp, pc, addr), True,
                           shard_index, fault, breaker_opened,
                           breaker_closed)

    def apply_batch(
        self, records: List[Tuple[str, int, int, int, int]]
    ) -> List[Optional[ApplyResult]]:
        """Absorb a run of ``(client, warp, pc, addr, app)`` records, one
        :meth:`apply` each, in order — the journal replays record by
        record, so a batch must land on the same digest."""
        apply = self.apply
        return [apply(*record) for record in records]

    # ------------------------------------------------------------------
    # Pure reads

    def predict(self, client: str, warp: int, pc: int, addr: int,
                app: int = 0) -> Optional[Tuple[List[int], bool]]:
        """Answer a prediction query without touching durable state;
        returns None when the session does not exist."""
        session = self.sessions.get(client)
        if session is None:
            return None
        shard_index = pc % self.config.shards
        breaker = session.breakers[shard_index]
        if breaker.would_answer_from_learner(self.seq,
                                             self.config.breaker_cooldown):
            return peek_predictions(
                session.shards[shard_index], warp, pc, addr, app, self.seq
            ), False
        return session.fallback.predict(warp, pc, addr), True

    def stats(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "sessions": len(self.sessions),
            "counters": dict(self.counters),
        }

    def audit(self) -> List[str]:
        """Structural invariants across every session's learner tables
        (the chaos certificate's final green light)."""
        violations: List[str] = []
        for client, session in self.sessions.items():
            for index, learner in enumerate(session.shards):
                for app_id, head, tail in learner.tables():
                    label = "%s/shard%d/app%d" % (client, index, app_id)
                    violations.extend(tail.structural_violations(label))
        return violations

    # ------------------------------------------------------------------
    # Durability

    def snapshot(self) -> Dict[str, Any]:
        return {
            "v": STATE_VERSION,
            "seq": self.seq,
            "config": asdict(self.config),
            "counters": dict(self.counters),
            "sessions": [
                [client, session.snapshot()]
                for client, session in self.sessions.items()
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "ServiceState":
        if data.get("v") != STATE_VERSION:
            raise ValueError(
                "unsupported ServiceState snapshot version %r"
                % (data.get("v"),)
            )
        config = ServeConfig(**{k: v for k, v in data["config"].items()})
        state = cls(config)
        state.seq = int(data["seq"])
        state.counters = {k: int(v) for k, v in data["counters"].items()}
        for client, session_data in data["sessions"]:
            state.sessions[str(client)] = ClientSession.restore(
                config, session_data
            )
        return state

    def state_digest(self) -> str:
        """The byte-identity certificate: sha256 over the canonical JSON
        serialization of the snapshot."""
        payload = json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


__all__ = [
    "AdmitResult",
    "ApplyResult",
    "ClientSession",
    "ServeConfig",
    "ServiceState",
    "ShardBreaker",
    "StrideFallback",
    "peek_predictions",
]
