"""Reference for :meth:`ServiceState.apply`: the original per-record body.

``ServiceState.apply`` skips ``answer_from_learner`` and ``on_ok`` while
the shard's breaker is closed with no failures (the first returns True
and the second changes nothing there), builds its ``ApplyResult`` once
from locals, and reads ``config``, ``counters``, ``seq`` and ``applied``
once per call.  The function below is the original shape it must match
exactly: every record asks the breaker and settles it through ``on_ok``
/ ``on_fault``, and the result is built up front with defaults and then
filled in.

It takes the service state as its first argument and mutates it as
``apply`` does; nothing in production calls it.
"""

from typing import List, Optional

from repro.serve.state import ApplyResult, ServiceState


def apply(state: ServiceState, client: str, warp: int, pc: int, addr: int,
          app: int = 0) -> Optional[ApplyResult]:
    session = state.sessions.get(client)
    if session is None:
        return None
    state.seq += 1
    session.last_active = state.seq
    session.applied += 1
    state.counters["applied"] += 1

    shard_index = pc % state.config.shards
    breaker = session.breakers[shard_index]
    result = ApplyResult(shard=shard_index)
    learner_predictions: List[int] = []
    from_learner = breaker.answer_from_learner(
        state.seq, state.config.breaker_cooldown
    )
    try:
        learner = session.shards[shard_index]
        learner_predictions = [
            target for target, _ in
            learner.observe(warp, pc, addr, app, False, state.seq)
        ]
        if session.applied % state.config.audit_every == 0:
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
        result.breaker_opened = breaker.on_fault(
            state.seq, state.config.breaker_threshold
        )
        result.fault = "%s: %s" % (type(exc).__name__, exc)
        session.shards[shard_index] = state.config.make_learner()
        session.faults += 1
        state.counters["faults"] += 1
        from_learner = False
    else:
        if from_learner:
            result.breaker_closed = breaker.on_ok()

    session.fallback.update(warp, pc, addr)
    if from_learner:
        result.predictions = learner_predictions
    else:
        result.predictions = session.fallback.predict(warp, pc, addr)
        result.degraded = True
        state.counters["degraded"] += 1
    return result
