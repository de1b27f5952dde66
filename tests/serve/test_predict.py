"""``ServiceState.predict`` against the scalar reference read.

The service answers a prediction through the learner's production
generation lane (``SnakePrefetcher._generate_raw``).  ``scalar_peek``
below is the reference it must match: the naive generation functions of
``tests/core/reference_snake.py``, one CAM search per hop.  Neither read
may move the state digest.
"""

import pytest

from repro.core.snake import SnakePrefetcher
from repro.prefetch.base import AccessEvent
from repro.serve import suite_events
from repro.serve.state import ServeConfig, ServiceState, peek_predictions

from ..core.reference_snake import (
    chain_requests,
    inter_warp_requests,
    intra_requests,
)


def scalar_peek(learner, warp, pc, addr, app=0):
    """Read-only scalar prediction: chains, then intra-warp, then
    inter-warp, deduplicated chain-first, with ``lookups`` restored."""
    if learner.per_app and app not in learner._app_tables:
        return []
    learner._select_app(app)
    event = AccessEvent(warp_id=warp, cta_id=0, pc=pc, base_addr=addr,
                        line_addr=addr, now=0, app_id=app)
    saved = learner.tail.lookups
    try:
        requests = []
        if learner.use_chains:
            requests.extend(chain_requests(learner, event))
        if learner.use_intra:
            requests.extend(intra_requests(learner, event))
        if learner.use_inter_warp:
            requests.extend(inter_warp_requests(learner, event))
    finally:
        learner.tail.lookups = saved
    seen = set()
    out = []
    for request in requests:
        if request.base_addr not in seen:
            seen.add(request.base_addr)
            out.append(request.base_addr)
    return out


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
                learner.observe_raw(i % 4, pc, base + 64 * i + app, app)
    image = learner.snapshot()
    for app in (0, 1, 2):   # app 2 has no tables: both read nothing
        for pc in (0x10, 0x20):
            for addr in (0x1000, 0x20):
                assert peek_predictions(learner, 1, pc, addr, app) == \
                    scalar_peek(learner, 1, pc, addr, app)
    assert learner.snapshot() == image
    assert peek_predictions(learner, 1, 0x10, 0x1000, 0)
