"""``ServiceState.predict`` and ``apply`` against the naive references.

The service trains and predicts in one pass per applied record
(``SnakePrefetcher.observe``), and answers a prediction through the
same generation body on its own (``SnakePrefetcher._generate_raw``, with
``peek_predictions`` looking the consensus tracker up).  ``scalar_peek``
(``tests/core/reference_snake.py``'s ``peek``) is the reference a read
must match: the naive generation functions, one CAM search per hop.
Neither read may move the state digest.  A ``serve-drain``-shaped run
is also replayed with every learner swapped for the reference one, and
must reach the same digest after every sweep.
"""

import pytest

from repro.core.snake import SnakePrefetcher
from repro.serve import suite_events
from repro.serve.loadgen import CLIENT_ADDR_STRIDE
from repro.serve.state import ServeConfig, ServiceState, peek_predictions

from ..core import reference_snake
from ..core.reference_snake import peek as scalar_peek


@pytest.mark.parametrize("seed", [1, 2])
def test_predict_matches_scalar_reference_and_keeps_digest(seed):
    config = ServeConfig(shards=2)
    state = ServiceState(config)
    streams = suite_events(("lps", "mum"), scale=0.1, seed=seed)
    clients = ["c%d" % i for i in range(len(streams))]
    for client in clients:
        state.admit(client)
    answered = 0
    for k in range(min(len(s) for s in streams)):
        for client, stream in zip(clients, streams):
            warp, pc, addr = stream[k]
            state.apply(client, warp, pc, addr)
            if k % 5:
                continue
            learner = state.sessions[client].shards[pc % config.shards]
            # The record's own address, and one near 0 whose targets clip.
            for query in (addr, addr % 256):
                digest = state.state_digest()
                predictions, degraded = state.predict(client, warp, pc, query)
                assert state.state_digest() == digest
                assert not degraded
                assert predictions == scalar_peek(learner, warp, pc, query)
                assert state.state_digest() == digest
                answered += bool(predictions)
    assert answered  # the learners trained and the reads returned targets


def test_per_app_peek_matches_scalar_reference():
    learner = SnakePrefetcher(per_app=True, train_threshold=2)
    for i in range(40):
        for app in (0, 1):
            for pc, base in ((0x10, 0x1000), (0x20, 0x9000)):
                learner.observe(i % 4, pc, base + 64 * i + app, app)
    image = learner.snapshot()
    for app in (0, 1, 2):   # app 2 has no tables: both read nothing
        for pc in (0x10, 0x20):
            for addr in (0x1000, 0x20):
                assert peek_predictions(learner, 1, pc, addr, app) == \
                    scalar_peek(learner, 1, pc, addr, app)
    assert learner.snapshot() == image
    assert peek_predictions(learner, 1, 0x10, 0x1000, 0)


def _drain_records(clients, events, seed):
    """``serve-drain``-shaped traffic: client ``i`` replays app
    ``i % 4``'s kernel events at an address offset of its own, and the
    queue holds the next record of every client, in client order."""
    streams = suite_events(("lps", "hotspot", "backprop", "mum"),
                           scale=0.1, seed=seed)
    names = ["c%02d" % i for i in range(clients)]
    records = []
    for k in range(events):
        for i, name in enumerate(names):
            stream = streams[i % len(streams)]
            if k < len(stream):
                warp, pc, addr = stream[k]
                records.append(
                    (name, warp, pc, addr + i * CLIENT_ADDR_STRIDE, 0)
                )
    return names, records


def _drain(names, records):
    """Apply ``records`` in 32-record sweeps with a predict of each
    sweep's last record after it; one (digest, apply answers, predict
    answer) row per sweep."""
    state = ServiceState(ServeConfig())
    for name in names:
        state.admit(name)
    rows = []
    for start in range(0, len(records), 32):
        batch = records[start:start + 32]
        results = state.apply_batch(batch)
        answer = state.predict(*batch[-1])
        rows.append((
            state.state_digest(),
            [(r.predictions, r.degraded) for r in results],
            answer,
        ))
    return rows


@pytest.mark.parametrize("seed", [1, 2])
def test_drain_matches_reference_learners(seed):
    """The same drain with production learners and with every learner
    training through ``reference_snake.detect`` and predicting through
    ``reference_snake.generate``: equal digests after every sweep and
    equal apply and predict answers."""
    names, records = _drain_records(12, 64, seed)
    production = _drain(names, records)
    with pytest.MonkeyPatch.context() as monkeypatch:
        reached = reference_snake.install(monkeypatch)
        reference = _drain(names, records)
    assert reached["detect"] == len(records)
    assert reached["generate"] == len(records) + len(production)
    assert len(production) == len(reference) == -(-len(records) // 32)
    for sweep, (got, want) in enumerate(zip(production, reference)):
        assert got == want, "sweep %d diverged" % sweep
    # The learners trained: some sweep's predict read returned targets.
    assert any(answer[0] for _, _, answer in production)
