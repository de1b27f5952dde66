"""Layer spans recorded from outside the program, aggregated online.

A :class:`Tracer` wraps callables; each call through a wrapper is one
span of a named layer.  While the program runs the tracer keeps, per
layer, the number of calls, the *raw* self time (a span's duration minus
the durations of its direct child spans) and the number of child spans
started inside it.  A parent stack supplies the nesting, so no span list
has to be kept to compute self time.  The first ``log_cap`` spans to end
are also logged (layer, start, end) for a Chrome trace.

Every wrapper costs time that the program itself would not spend.  Part
of that cost falls inside the span's own interval (the clock read and the
call through ``*args``) and part inside its parent's interval (entering
and leaving the wrapper).  :func:`calibrate` measures both parts on a
no-op method, and :meth:`Tracer.layer_times` subtracts them per span from
its own layer and its parent's.  Inside a real program a span costs more
than on the no-op (colder caches, keyword arguments), by an amount that
differs between layers; that part is not modelled, stays in the layers'
self times, and shows as the gap between their sum and an untraced run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: Spans kept in the in-memory log.
LOG_CAP = 200_000


@dataclass(frozen=True)
class SpanCost:
    """Wrapper cost per span, in seconds: ``inside`` lands in the span's
    own interval, ``outside`` in its parent's."""

    inside: float = 0.0
    outside: float = 0.0

    @property
    def per_span(self) -> float:
        return self.inside + self.outside


@dataclass(frozen=True)
class LayerTime:
    calls: int
    self_s: float


class Tracer:
    """Online span aggregation for a fixed set of layer names."""

    def __init__(
        self,
        layers: Tuple[str, ...],
        clock: Callable[[], float] = time.perf_counter,
        log_cap: int = LOG_CAP,
    ) -> None:
        self.layers = layers
        self.clock = clock
        self.log_cap = log_cap
        self._index = {name: i + 1 for i, name in enumerate(layers)}
        # Slot 0 is the pseudo-layer outside every span: the parent of
        # root spans.
        slots = len(layers) + 1
        self._calls = [0] * slots
        self._self = [0.0] * slots
        self._children = [0] * slots
        # The open spans, innermost last: their layers, and the time their
        # finished children took so far.
        self._open_layers = [0]
        self._open_child_s = [0.0]
        self._log: List[Tuple[int, float, float]] = []

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` wrapped so that every call is a span of ``layer``."""
        idx = self._index[layer]
        clock = self.clock
        open_layers, open_child_s = self._open_layers, self._open_child_s
        calls, self_time = self._calls, self._self
        children = self._children
        log, log_cap = self._log, self.log_cap

        def traced(*args: Any, **kwargs: Any) -> Any:
            open_layers.append(idx)
            open_child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                inclusive = end - start
                self_time[idx] += inclusive - open_child_s.pop()
                open_layers.pop()
                open_child_s[-1] += inclusive
                calls[idx] += 1
                children[open_layers[-1]] += 1
                if len(log) < log_cap:
                    log.append((idx, start, end))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @property
    def spans(self) -> int:
        return sum(self._calls)

    @property
    def root_s(self) -> float:
        """Total duration of the root spans (those with no traced parent)."""
        return self._open_child_s[0]

    def wrapper_s(self, cost: SpanCost) -> float:
        """Total wrapper cost at ``cost`` per span: every span's inside
        part, and the outside part of every span with a traced parent."""
        return self.spans * cost.inside + sum(self._children[1:]) * cost.outside

    def layer_times(self, cost: SpanCost = SpanCost()) -> Dict[str, LayerTime]:
        """Calls and self time per layer, less ``cost`` for each span and
        for each child span started inside it.  A self time the subtraction
        would take below zero reads zero."""
        return {
            name: LayerTime(
                self._calls[idx],
                max(
                    0.0,
                    self._self[idx]
                    - self._calls[idx] * cost.inside
                    - self._children[idx] * cost.outside,
                ),
            )
            for name, idx in self._index.items()
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """The span log as Chrome trace-event JSON (``ph: X``, microseconds).

        Spans are numbered in start order; each one's parent is the
        innermost logged span that encloses it (-1 for none).
        """
        spans = sorted(self._log, key=lambda s: (s[1], -s[2]))
        events = []
        enclosing: List[Tuple[int, float]] = []  # (span id, end)
        for span_id, (idx, start, end) in enumerate(spans):
            while enclosing and enclosing[-1][1] < end:
                enclosing.pop()
            events.append({
                "name": self.layers[idx - 1],
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span_id,
                    "parent": enclosing[-1][0] if enclosing else -1,
                },
            })
            enclosing.append((span_id, end))
        return {"traceEvents": events, "displayTimeUnit": "ns"}


class _Probe:
    def call(self, a: int, b: int) -> None:
        return None


def _call_loop(probe: _Probe, calls: int) -> None:
    for _ in range(calls):
        probe.call(1, 2)


def _empty_loop(probe: _Probe, calls: int) -> None:
    for _ in range(calls):
        pass


def calibrate(calls: int = 20_000, trials: int = 5) -> SpanCost:
    """Measure the wrapper's cost per span on a no-op two-argument method,
    called through an attribute as the program's call sites do.

    The loop runs once plainly and once with the method wrapped on the
    instance, under a root span.  The part inside a span is the child's
    recorded self time less the plain call's cost; the part outside is the
    root's self time less the empty loop's.  Each part is the median over
    ``trials``.
    """
    clock = time.perf_counter
    inside, outside = [], []
    for _ in range(trials):
        probe = _Probe()
        start = clock()
        _call_loop(probe, calls)
        plain_s = clock() - start
        start = clock()
        _empty_loop(probe, calls)
        empty_s = clock() - start

        tracer = Tracer(("root", "child"), clock=clock, log_cap=0)
        probe.call = tracer.wrap("child", probe.call)  # type: ignore[method-assign]
        tracer.wrap("root", _call_loop)(probe, calls)
        times = tracer.layer_times()
        inside.append((times["child"].self_s - plain_s + empty_s) / calls)
        outside.append((times["root"].self_s - empty_s) / calls)
    return SpanCost(
        inside=max(0.0, statistics.median(inside)),
        outside=max(0.0, statistics.median(outside)),
    )


__all__ = ["LOG_CAP", "LayerTime", "SpanCost", "Tracer", "calibrate"]
