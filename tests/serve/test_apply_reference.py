"""``ServiceState.apply`` against its original body
(``reference_apply.apply``): every ``ApplyResult`` field and the state
digest must agree after each record, through every breaker state —
closed with failures, open, the half-open trial that closes and the one
that faults — and through the periodic structural audit."""

import dataclasses

from repro.core.snake import SnakePrefetcher
from repro.serve.state import ApplyResult, ServeConfig, ServiceState

from . import reference_apply
from .test_state import _wound_shard


class _BadTail:
    def structural_violations(self, label):
        return ["%s: planted violation" % label]


class _Unsound(SnakePrefetcher):
    """A working learner whose structural audit always fails."""

    def tables(self):
        return list(super().tables()) + [(0, None, _BadTail())]


def _plant_unsound(state, client, shard_index):
    config = state.config
    state.sessions[client].shards[shard_index] = _Unsound(
        head_entries=config.head_entries,
        tail_entries=config.tail_entries,
        train_threshold=config.train_threshold,
        max_chain_depth=config.max_chain_depth,
    )


def _records(rounds, pcs=(16, 24, 21)):
    """Several warps agreeing on strided PCs, so the learner trains and
    predicts; ``ghost`` was never admitted."""
    records = []
    for i in range(rounds):
        for warp in range(4):
            for k, pc in enumerate(pcs):
                records.append(
                    ("c", warp, pc, (k + 1) * (1 << 20) + 256 * warp + 64 * i, 0)
                )
        records.append(("ghost", 0, 16, 4096, 0))
    return records


def _drive(config, records, plants):
    """Apply ``records`` to two states, one through ``apply`` and one
    through the reference, planting ``plants[index]`` into the record's
    shard of both just before record ``index``.  Returns, per admitted
    record, the breaker's ``(state, has failures)`` before it and the
    result."""
    new, ref = ServiceState(config), ServiceState(config)
    for state in (new, ref):
        state.admit("c")
    steps = []
    for index, record in enumerate(records):
        client, pc = record[0], record[2]
        shard_index = pc % config.shards
        if index in plants:
            for state in (new, ref):
                plants[index](state, client, shard_index)
        before = None
        if client in new.sessions:
            breaker = new.sessions[client].breakers[shard_index]
            before = (breaker.state, breaker.failures > 0)
        got = new.apply(*record)
        want = reference_apply.apply(ref, *record)
        if want is None:
            assert got is None
        else:
            assert dataclasses.asdict(got) == dataclasses.asdict(want), index
            steps.append((before, got))
        assert new.state_digest() == ref.state_digest(), index
    return steps


def test_closed_breaker_with_failures_matches_reference():
    """Threshold 2: one fault leaves the breaker closed with a failure,
    the next good record clears it; two in a row open it."""
    config = ServeConfig(shards=1, breaker_threshold=2, breaker_cooldown=3)
    records = _records(12)
    plants = {i: _wound_shard for i in (4, 20, 21, 40, 42)}
    steps = _drive(config, records, plants)
    # A good record on a closed breaker with a failure clears it.
    assert any(before == ("closed", True) and not r.fault and not r.degraded
               for before, r in steps)
    assert any(r.breaker_opened for _, r in steps)
    assert any(r.breaker_closed for _, r in steps)
    assert any(r.predictions and not r.degraded for _, r in steps)


def test_open_half_open_close_matches_reference():
    """The ``_Boom`` plant: fault -> open -> half-open trial -> closed,
    and a half-open trial that faults reopens the breaker."""
    config = ServeConfig(shards=2, breaker_threshold=1, breaker_cooldown=3)
    records = _records(12)
    plants = {i: _wound_shard for i in (6, 26, 29, 50)}
    steps = _drive(config, records, plants)
    assert any(r.breaker_closed for _, r in steps)
    assert any(r.degraded and not r.fault for _, r in steps)
    # An open breaker's trial that faults reopens it.
    assert any(before[0] == "open" and r.breaker_opened for before, r in steps)


def test_structural_audit_matches_reference():
    """A small ``audit_every``: clean audits pass, and a learner whose
    audit fails faults and is replaced, exactly as in the reference."""
    config = ServeConfig(shards=2, audit_every=3, breaker_cooldown=4)
    records = _records(10)
    plants = {i: _plant_unsound for i in (5, 30)}
    steps = _drive(config, records, plants)
    faults = [r.fault for _, r in steps if r.fault]
    assert faults and all("structural audit failed" in f for f in faults)


def test_apply_result_has_slots_and_keeps_its_shape():
    result = ApplyResult()
    assert not hasattr(result, "__dict__")
    assert repr(result) == (
        "ApplyResult(predictions=[], degraded=False, shard=0, fault='', "
        "breaker_opened=False, breaker_closed=False)"
    )
    assert result == ApplyResult([], False, 0, "", False, False)
    assert ApplyResult().predictions is not result.predictions
