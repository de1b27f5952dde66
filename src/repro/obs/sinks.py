"""Built-in telemetry sinks.

Three consumers cover the paper's analysis axes:

* :class:`TimeSeriesSampler` — counters per N-cycle bucket (the Fig 3/4/5
  time axis the aggregate :class:`~repro.gpusim.stats.SimStats` cannot
  show).
* :class:`PCMetricsSink` — per-PC and per-warp aggregation (Figs 9-11's
  per-load view; :func:`repro.obs.runner.traced_run` returns it, and
  ``pcs_by_accesses()`` is the library's per-PC profile).
* :class:`ChromeTraceExporter` — a ``chrome://tracing`` /
  ``ui.perfetto.dev`` JSON file with per-SM counter tracks and instant
  events for throttle halts.

Writing a new sink: subclass :class:`repro.obs.events.Sink`, dispatch on
``event.kind``, ignore kinds you do not handle (new kinds may appear), and
flush in ``close()``.  See ``docs/OBSERVABILITY.md`` for a worked example.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .events import Event, EventKind, Sink


class TimeSeriesSampler(Sink):
    """Windowed counters: events bucketed by ``cycle // bucket_cycles``.

    Counter names are stable strings (``l1_hit``, ``prefetch_issue``,
    ``throttle_block_bandwidth``, ...) so downstream plotting does not
    depend on event classes.  Buckets are attributed by *emission* cycle —
    a fill scheduled at cycle ``t`` lands in ``t``'s bucket even if the
    emitting component ran ahead of other SMs.
    """

    def __init__(self, bucket_cycles: int = 1000) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.bucket_cycles = bucket_cycles
        self._counts: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._max_bucket = -1

    def _name(self, event: Event) -> Optional[str]:
        kind = event.kind
        if kind is EventKind.CACHE_ACCESS:
            return "l1_" + event.outcome
        if kind is EventKind.PREFETCH_ISSUE:
            return "prefetch_issue"
        if kind is EventKind.PREFETCH_FILL:
            return "prefetch_fill"
        if kind is EventKind.PREFETCH_USE:
            return "prefetch_use"
        if kind is EventKind.PREFETCH_DROP:
            return "prefetch_drop_" + event.reason
        if kind is EventKind.THROTTLE:
            return "throttle_block_" + event.reason
        if kind is EventKind.CHAIN_WALK:
            return "chain_walk"
        if kind is EventKind.DRAM_ROW_ACTIVATE:
            return "dram_row_activate"
        if kind is EventKind.L2_ACCESS:
            return "l2_hit" if event.hit else "l2_miss"
        return None

    def accept(self, event: Event) -> None:
        name = self._name(event)
        if name is None:
            return
        bucket = event.cycle // self.bucket_cycles
        self._counts[name][bucket] += 1
        if bucket > self._max_bucket:
            self._max_bucket = bucket

    def counters(self) -> List[str]:
        return sorted(self._counts)

    def total(self, counter: str) -> int:
        return sum(self._counts.get(counter, {}).values())

    def series(self, counter: str) -> List[Tuple[int, int]]:
        """Dense ``(bucket_start_cycle, count)`` pairs from bucket 0 to the
        last bucket any counter touched (so series line up for plotting)."""
        buckets = self._counts.get(counter, {})
        return [
            (b * self.bucket_cycles, buckets.get(b, 0))
            for b in range(self._max_bucket + 1)
        ]

    def as_dict(self) -> Dict[str, List[Tuple[int, int]]]:
        return {name: self.series(name) for name in self.counters()}

    def render_summary(self, top: int = 12) -> str:
        """Human-readable totals plus the peak bucket of each counter."""
        lines = [
            "time series (bucket = %d cycles)" % self.bucket_cycles,
            "%-28s %10s %16s" % ("counter", "total", "peak bucket"),
        ]
        ranked = sorted(self.counters(), key=self.total, reverse=True)
        for name in ranked[:top]:
            buckets = self._counts[name]
            peak = max(buckets, key=buckets.get)
            lines.append(
                "%-28s %10d %9d @%6d"
                % (name, self.total(name), buckets[peak], peak * self.bucket_cycles)
            )
        return "\n".join(lines)


@dataclass
class PCStats:
    """Aggregated behaviour of one static load PC."""

    pc: int
    accesses: int = 0  # line transactions, including replayed fails
    hits: int = 0
    misses: int = 0
    reserved: int = 0
    reservation_fails: int = 0
    covered: int = 0
    timely: int = 0
    prefetches_issued: int = 0  # predictions this PC triggered
    chain_walks: int = 0
    max_chain_depth: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def coverage(self) -> float:
        return self.covered / self.accesses if self.accesses else 0.0


@dataclass
class WarpStats:
    """Aggregated behaviour of one warp."""

    warp_id: int
    accesses: int = 0
    hits: int = 0
    covered: int = 0
    timely: int = 0
    pcs: set = field(default_factory=set)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def coverage(self) -> float:
        return self.covered / self.accesses if self.accesses else 0.0


class PCMetricsSink(Sink):
    """Per-PC and per-warp metric aggregation.

    Per-PC rows answer "which loads does the prefetcher cover?" (the
    question behind Figs 9-11); per-warp rows answer "is coverage uniform
    across warps or carried by the leaders?".
    """

    def __init__(self) -> None:
        self.per_pc: Dict[int, PCStats] = {}
        self.per_warp: Dict[int, WarpStats] = {}

    def accept(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.CACHE_ACCESS:
            pc = self.per_pc.get(event.pc)
            if pc is None:
                pc = self.per_pc[event.pc] = PCStats(pc=event.pc)
            pc.accesses += 1
            if event.outcome == "hit":
                pc.hits += 1
            elif event.outcome == "miss":
                pc.misses += 1
            elif event.outcome == "reserved":
                pc.reserved += 1
            else:
                pc.reservation_fails += 1
            pc.covered += event.covered
            pc.timely += event.timely

            warp = self.per_warp.get(event.warp_id)
            if warp is None:
                warp = self.per_warp[event.warp_id] = WarpStats(
                    warp_id=event.warp_id
                )
            warp.accesses += 1
            warp.hits += event.outcome == "hit"
            warp.covered += event.covered
            warp.timely += event.timely
            warp.pcs.add(event.pc)
        elif kind is EventKind.PREFETCH_ISSUE:
            pc = self.per_pc.get(event.pc)
            if pc is None:
                pc = self.per_pc[event.pc] = PCStats(pc=event.pc)
            pc.prefetches_issued += 1
        elif kind is EventKind.CHAIN_WALK:
            pc = self.per_pc.get(event.pc)
            if pc is None:
                pc = self.per_pc[event.pc] = PCStats(pc=event.pc)
            pc.chain_walks += 1
            if event.depth > pc.max_chain_depth:
                pc.max_chain_depth = event.depth

    def pcs_by_accesses(self) -> List[PCStats]:
        return sorted(self.per_pc.values(), key=lambda p: -p.accesses)

    def render_pc_table(self, top: Optional[int] = None) -> str:
        lines = [
            "%-10s %8s %7s %7s %7s %8s %8s %6s"
            % ("pc", "accesses", "hit%", "cover%", "timely%", "pf-issue",
               "walks", "depth")
        ]
        rows = self.pcs_by_accesses()
        for row in rows[:top] if top else rows:
            lines.append(
                "%-10s %8d %6.1f%% %6.1f%% %6.1f%% %8d %8d %6d"
                % (
                    hex(row.pc),
                    row.accesses,
                    100 * row.hit_rate,
                    100 * row.coverage,
                    100 * (row.timely / row.accesses if row.accesses else 0),
                    row.prefetches_issued,
                    row.chain_walks,
                    row.max_chain_depth,
                )
            )
        return "\n".join(lines)

    def render_warp_table(self, top: Optional[int] = None) -> str:
        lines = [
            "%-8s %8s %7s %7s %5s"
            % ("warp", "accesses", "hit%", "cover%", "pcs")
        ]
        rows = sorted(self.per_warp.values(), key=lambda w: -w.accesses)
        for row in rows[:top] if top else rows:
            lines.append(
                "%-8d %8d %6.1f%% %6.1f%% %5d"
                % (
                    row.warp_id,
                    row.accesses,
                    100 * row.hit_rate,
                    100 * row.coverage,
                    len(row.pcs),
                )
            )
        return "\n".join(lines)


class ChromeTraceExporter(Sink):
    """Export the event stream as Chrome-trace JSON.

    Load the file at ``chrome://tracing`` or https://ui.perfetto.dev.  The
    layout: one *process* per SM (pid = sm_id + 1; pid 0 holds the shared
    L2/DRAM), counter tracks ("C" phase) sampled per bucket for the cache /
    prefetch / memory rates, and instant events ("i" phase) for throttle
    blocks.  Timestamps are core cycles reported as microseconds (Chrome's
    native unit) — relative spacing is what matters.

    ``max_events`` bounds the output; once the cap is reached further
    instants are dropped (counter tracks keep accumulating, they are
    bucketed).  The drop count is reported in the trace metadata so a
    truncated trace is visibly truncated.
    """

    _COUNTER_TRACKS = {
        EventKind.CACHE_ACCESS: "L1 accesses",
        EventKind.PREFETCH_ISSUE: "prefetch",
        EventKind.PREFETCH_FILL: "prefetch",
        EventKind.PREFETCH_USE: "prefetch",
        EventKind.PREFETCH_DROP: "prefetch",
        EventKind.L2_ACCESS: "L2 accesses",
        EventKind.DRAM_ROW_ACTIVATE: "DRAM",
        EventKind.CHAIN_WALK: "chain walks",
    }

    def __init__(self, bucket_cycles: int = 1000, max_events: int = 200000) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be >= 1")
        self.bucket_cycles = bucket_cycles
        self.max_events = max_events
        # (pid, track, series) -> {bucket: count}
        self._buckets: Dict[Tuple[int, str, str], Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._instants: List[dict] = []
        self.dropped_instants = 0

    def _series(self, event: Event) -> Optional[str]:
        kind = event.kind
        if kind is EventKind.CACHE_ACCESS:
            return event.outcome
        if kind is EventKind.PREFETCH_ISSUE:
            return "issue"
        if kind is EventKind.PREFETCH_FILL:
            return "fill"
        if kind is EventKind.PREFETCH_USE:
            return "use"
        if kind is EventKind.PREFETCH_DROP:
            return "drop"
        if kind is EventKind.L2_ACCESS:
            return "hit" if event.hit else "miss"
        if kind is EventKind.DRAM_ROW_ACTIVATE:
            return "row_activate"
        if kind is EventKind.CHAIN_WALK:
            return "walks"
        return None

    def accept(self, event: Event) -> None:
        track = self._COUNTER_TRACKS.get(event.kind)
        if track is not None:
            series = self._series(event)
            bucket = event.cycle // self.bucket_cycles
            self._buckets[(event.sm_id + 1, track, series)][bucket] += 1
            return
        if event.kind is EventKind.THROTTLE:
            if len(self._instants) >= self.max_events:
                self.dropped_instants += 1
                return
            self._instants.append(
                {
                    "name": "throttle:" + event.reason,
                    "ph": "i",
                    "ts": event.cycle,
                    "pid": event.sm_id + 1,
                    "tid": 0,
                    "s": "t",
                    "args": {"utilization": round(event.utilization, 4)},
                }
            )

    def trace_events(self) -> List[dict]:
        """The ``traceEvents`` array (also what :meth:`export` writes)."""
        events: List[dict] = []
        pids = {pid for pid, _, _ in self._buckets} | {
            e["pid"] for e in self._instants
        }
        for pid in sorted(pids):
            name = "shared L2/DRAM" if pid == 0 else "SM %d" % (pid - 1)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        # Group counter samples: one "C" event per (pid, track, bucket)
        # carrying every series of that track in args.
        grouped: Dict[Tuple[int, str, int], Dict[str, int]] = defaultdict(dict)
        for (pid, track, series), buckets in self._buckets.items():
            for bucket, count in buckets.items():
                grouped[(pid, track, bucket)][series] = count
        for (pid, track, bucket) in sorted(grouped):
            events.append(
                {
                    "name": track,
                    "ph": "C",
                    "ts": bucket * self.bucket_cycles,
                    "pid": pid,
                    "tid": 0,
                    "args": grouped[(pid, track, bucket)],
                }
            )
        events.extend(sorted(self._instants, key=lambda e: e["ts"]))
        return events

    def as_dict(self) -> dict:
        return {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "snake-repro trace",
                "bucket_cycles": self.bucket_cycles,
                "dropped_instants": self.dropped_instants,
            },
        }

    def export(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)
