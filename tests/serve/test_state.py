"""The deterministic core: replay determinism, breakers, eviction, and
the read-only-ness of every query path (what recovery certification
rests on)."""

import pytest

from repro.serve.state import (
    ServeConfig,
    ServiceState,
    ShardBreaker,
    StrideFallback,
)


def _stream(state, client, n, pc=16, stride=64, warp=0, base=4096):
    results = []
    for i in range(n):
        results.append(state.apply(client, warp, pc, base + stride * i))
    return results


def _train(state, client, rounds=20):
    """A stream that actually trains Snake chains: several warps agreeing
    on the same two-PC transition (training requires a warp consensus,
    not one warp repeating itself)."""
    for i in range(rounds):
        for pc, base in ((16, 4096), (24, 1 << 20)):
            state.apply(client, i % 4, pc, base + 64 * i)


# ---------------------------------------------------------------------------
# Determinism and serialization


def test_same_inputs_same_digest():
    a, b = ServiceState(), ServiceState()
    for state in (a, b):
        state.admit("x")
        state.admit("y")
        _stream(state, "x", 40)
        _stream(state, "y", 25, pc=24, stride=128)
    assert a.state_digest() == b.state_digest()


def test_snapshot_restore_round_trip():
    state = ServiceState(ServeConfig(shards=2))
    state.admit("x")
    _stream(state, "x", 30)
    restored = ServiceState.restore(state.snapshot())
    assert restored.state_digest() == state.state_digest()
    # Both continue identically after restore.
    _stream(state, "x", 10)
    _stream(restored, "x", 10)
    assert restored.state_digest() == state.state_digest()


def test_restore_refuses_unknown_version():
    snapshot = ServiceState().snapshot()
    snapshot["v"] = 999
    with pytest.raises(ValueError, match="version"):
        ServiceState.restore(snapshot)


def test_predict_does_not_move_the_digest():
    state = ServiceState()
    state.admit("x")
    _train(state, "x")
    before = state.state_digest()
    for i in range(20):
        answer = state.predict("x", 0, 16, 4096 + 64 * i)
        assert answer is not None
    state.stats()
    state.audit()
    state.snapshot()
    assert state.state_digest() == before


def test_predict_after_training_produces_addresses():
    state = ServiceState()
    state.admit("x")
    _train(state, "x")
    predictions, degraded = state.predict("x", 0, 16, 4096 + 64 * 20)
    assert not degraded
    assert predictions


def test_admit_existing_is_a_pure_read():
    state = ServiceState()
    state.admit("x")
    _stream(state, "x", 5)
    before = state.state_digest()
    result = state.admit("x")
    assert result.ok and not result.created
    assert state.state_digest() == before


def test_apply_unknown_session_returns_none():
    assert ServiceState().apply("ghost", 0, 16, 4096) is None
    assert ServiceState().predict("ghost", 0, 16, 4096) is None


# ---------------------------------------------------------------------------
# Admission control and session eviction


def test_full_table_of_active_clients_denies():
    config = ServeConfig(max_sessions=3, min_idle_evict=1000)
    state = ServiceState(config)
    for name in ("a", "b", "c"):
        assert state.admit(name).ok
        _stream(state, name, 2)
    result = state.admit("d")
    assert not result.ok and result.reason == "busy"
    assert "d" not in state.sessions


def test_idle_least_trained_session_is_evicted():
    config = ServeConfig(max_sessions=3, min_idle_evict=10)
    state = ServiceState(config)
    state.admit("trained")
    _train(state, "trained", rounds=10)    # real trained chain links
    state.admit("idle")
    _stream(state, "idle", 1, pc=8)        # zero trained links
    state.admit("recent")
    _stream(state, "recent", 30, pc=24)    # pushes the others idle
    assert state.sessions["trained"].trained_links() > 0
    result = state.admit("newcomer")
    assert result.ok and result.created
    assert result.evicted == "idle"        # least trained of the LRU group
    assert "newcomer" in state.sessions and "idle" not in state.sessions
    assert state.counters["evicted"] == 1


def test_evicted_sessions_apply_returns_none():
    config = ServeConfig(max_sessions=2, min_idle_evict=1)
    state = ServiceState(config)
    state.admit("a")
    _stream(state, "a", 2)
    state.admit("b")
    _stream(state, "b", 2)
    state.admit("c")
    evicted = [n for n in ("a", "b") if n not in state.sessions]
    assert len(evicted) == 1
    assert state.apply(evicted[0], 0, 16, 4096) is None


# ---------------------------------------------------------------------------
# Faults, breakers, degraded mode


class _Boom(Exception):
    pass


def _wound_shard(state, client, shard_index):
    """Replace one shard's learner with one that faults in observe_raw."""

    class _Wounded:
        def observe_raw(self, *args):
            raise _Boom("synthetic shard fault")

        def tables(self):
            return []

    state.sessions[client].shards[shard_index] = _Wounded()


def test_shard_fault_opens_breaker_and_degrades():
    config = ServeConfig(shards=2, breaker_threshold=1, breaker_cooldown=5)
    state = ServiceState(config)
    state.admit("x")
    _stream(state, "x", 10)                 # trains fallback at pc=16
    _wound_shard(state, "x", 16 % config.shards)
    result = state.apply("x", 0, 16, 4096 + 64 * 10)
    assert result.fault and result.breaker_opened and result.degraded
    # The fallback still answers the strided stream.
    assert result.predictions
    assert state.counters["faults"] == 1
    # The wounded learner was replaced with a fresh one.
    session = state.sessions["x"]
    assert not isinstance(session.shards[16 % config.shards], _Boom.__class__)
    # While open, answers keep coming from the fallback...
    result = state.apply("x", 0, 16, 4096 + 64 * 11)
    assert result.degraded and not result.fault
    # ...and predict() reports degraded too, without touching state.
    predictions, degraded = state.predict("x", 0, 16, 4096 + 64 * 12)
    assert degraded


def test_breaker_closes_after_cooldown_trial():
    config = ServeConfig(shards=1, breaker_threshold=1, breaker_cooldown=3)
    state = ServiceState(config)
    state.admit("x")
    _stream(state, "x", 5)
    _wound_shard(state, "x", 0)
    state.apply("x", 0, 16, 1 << 20)        # fault -> breaker opens
    assert state.sessions["x"].breakers[0].state == "open"
    opened = False
    for i in range(6):
        result = state.apply("x", 0, 16, (1 << 20) + 64 * (i + 1))
        if result.breaker_closed:
            opened = True
            break
    assert opened, "breaker never closed after the cooldown trial"
    assert state.sessions["x"].breakers[0].state == "closed"


def test_breaker_replays_identically():
    """Faults are deterministic state transitions: replaying the same
    records (with the same wounded shard) reaches the same digest."""
    def build():
        config = ServeConfig(shards=1, breaker_threshold=1,
                             breaker_cooldown=4)
        state = ServiceState(config)
        state.admit("x")
        _stream(state, "x", 8)
        _wound_shard(state, "x", 0)
        state.apply("x", 0, 16, 1 << 21)    # fault; fresh learner installed
        _stream(state, "x", 12, base=1 << 22)
        return state.state_digest()

    assert build() == build()


def test_half_open_failure_reopens():
    breaker = ShardBreaker()
    assert breaker.on_fault(seq=10, threshold=1)      # opens
    assert not breaker.answer_from_learner(11, cooldown=100)
    assert breaker.answer_from_learner(200, cooldown=100)  # half-open trial
    assert breaker.state == "half-open"
    assert breaker.on_fault(seq=201, threshold=99)    # trial failed: reopen
    assert breaker.state == "open" and breaker.opens == 2


# ---------------------------------------------------------------------------
# The stride fallback


def test_fallback_predicts_confirmed_strides_purely():
    fallback = StrideFallback(capacity=8, degree=2)
    for i in range(4):
        fallback.update(0, 16, 1000 + 8 * i)
    snapshot = fallback.snapshot()
    assert fallback.predict(0, 16, 1032) == [1040, 1048]
    assert fallback.predict(1, 16, 1032) == []   # unknown (warp, pc)
    assert fallback.snapshot() == snapshot       # predict is pure


def test_fallback_lru_bound():
    fallback = StrideFallback(capacity=2, degree=1)
    fallback.update(0, 1, 10)
    fallback.update(0, 2, 20)
    fallback.update(0, 3, 30)                    # evicts (0, 1)
    assert len(fallback.snapshot()) == 2
    restored = StrideFallback.restore(2, 1, fallback.snapshot())
    assert restored.snapshot() == fallback.snapshot()


# ---------------------------------------------------------------------------
# Config validation


@pytest.mark.parametrize("kwargs", [
    {"shards": 0},
    {"max_sessions": 0},
    {"breaker_threshold": 0},
    {"min_idle_evict": -1},
    {"fallback_degree": 0},
])
def test_config_rejects_nonsense(kwargs):
    with pytest.raises(ValueError):
        ServeConfig(**kwargs)


# ---------------------------------------------------------------------------
# Sweep drains (ServiceState.apply_batch)


def _burst_records(seed, count, clients):
    """Bursty per-client traffic, the shape a worker queue sweep drains."""
    import random

    rng = random.Random(seed)
    pcs = list(range(0x100, 0x100 + 8))
    cursors = {}
    records = []
    while len(records) < count:
        client = rng.choice(clients + ["ghost"])
        warp = rng.randrange(4)
        for k in range(rng.randrange(1, 24)):
            pc = pcs[(warp + k) % len(pcs)]
            key = (client, warp, pc)
            addr = cursors.get(key, 0x8000 + warp * 0x1000)
            cursors[key] = addr + 64
            records.append((client, warp, pc, addr, 0))
    del records[count:]
    return records


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_apply_batch_matches_sequential_apply(seed):
    """Digest and per-record results are identical no matter how the
    record stream is chunked — the property journal replay rests on."""
    import random

    config = ServeConfig(shards=2, audit_every=16, max_sessions=4,
                         min_idle_evict=4)
    a, b = ServiceState(config), ServiceState(config)
    clients = ["c%d" % i for i in range(5)]
    for client in clients:
        a.admit(client)
        b.admit(client)
    records = _burst_records(seed, 600, clients)

    sequential = [a.apply(*record) for record in records]
    rng = random.Random(seed)
    batched = []
    i = 0
    while i < len(records):
        k = rng.randrange(1, 48)
        batched.extend(b.apply_batch(records[i:i + k]))
        i += k

    assert a.state_digest() == b.state_digest()
    assert a.counters == b.counters
    for x, y in zip(sequential, batched):
        if x is None or y is None:
            assert x is y
            continue
        assert (x.predictions, x.degraded, x.shard, x.fault,
                x.breaker_opened, x.breaker_closed) == \
               (y.predictions, y.degraded, y.shard, y.fault,
                y.breaker_opened, y.breaker_closed)


def test_apply_batch_routes_faulting_learner_through_scalar_path():
    """A planted non-Snake learner (the breaker tests' idiom) must fault
    and degrade exactly as under sequential apply."""
    config = ServeConfig(shards=2, breaker_threshold=1, breaker_cooldown=50)
    a, b = ServiceState(config), ServiceState(config)
    for state in (a, b):
        state.admit("x")
        state.sessions["x"].shards[0] = _Boom()
    records = [("x", 0, pc, 0x1000 + 64 * i, 0)
               for i, pc in enumerate([2, 4, 6, 2, 4, 6, 3, 5, 3, 5] * 4)]
    sequential = [a.apply(*record) for record in records]
    batched = b.apply_batch(records)
    assert a.state_digest() == b.state_digest()
    assert [r.degraded for r in sequential] == [r.degraded for r in batched]
    assert [r.fault for r in sequential] == [r.fault for r in batched]
    assert b.counters["faults"] >= 1            # the plant did fault
    assert b.sessions["x"].breakers[0].state == "open"


def test_snapshot_roundtrip_after_batched_traffic():
    """The serve snapshot must round-trip the CAM-indexed learner
    tables byte-identically after batched traffic (the chaos recovery
    certificate's foundation)."""
    state = ServiceState(ServeConfig(shards=2))
    state.admit("x")
    state.admit("y")
    records = _burst_records(42, 400, ["x", "y"])
    i = 0
    while i < len(records):
        state.apply_batch(records[i:i + 32])
        i += 32
    image = state.snapshot()
    clone = ServiceState.restore(image)
    assert clone.snapshot() == image
    assert clone.state_digest() == state.state_digest()
    # and the clone continues identically, batched or not
    more = _burst_records(43, 120, ["x", "y"])
    state.apply_batch(more)
    for record in more:
        clone.apply(*record)
    assert clone.state_digest() == state.state_digest()
