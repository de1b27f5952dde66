"""Per-component wall-time attribution for the simulator hot path.

``snake-repro profile --hot`` answers a different question than the
cycle-domain telemetry in this package: not "where do the *simulated*
cycles go" but "where does the *host's* wall time go".  It wraps the
four hot components (see docs/PERFORMANCE.md, "The raw-argument hot
path"):

* ``table-walk`` — the learner side: ``observe`` / ``observe_raw``
  (Head-table update, Tail CAM search, chain walk, request generation);
* ``issue``      — the L1 prefetch admission path
  (``prefetch_trigger``, which expands each request off the coalescer's
  shape memo and runs every line through ``prefetch``);
* ``coalesce``   — the SM's warp-access-to-line flattening
  (``coalesce_lines`` / ``coalesce_sectors``);
* ``cache``      — the demand side (``demand_load`` / ``demand_store``).

The buckets are disjoint by construction: the learner never calls into
the L1, the issue path's expansion is part of the issue bucket, and demand
traffic bypasses all three others.  Only the outermost method of each
bucket is wrapped: ``prefetch`` runs nested inside ``prefetch_trigger``,
so metering it too would count its time twice.  Whatever the buckets do
not cover is reported as ``other`` (scheduling, the event core, trace
bookkeeping).

This module lives in the wall-clock domain — ``time.perf_counter`` is
the measurement, so it sits outside the SL101 determinism-lint scope.
The instrumentation itself costs a few percent (one counter read per
wrapped call); the table reports shares, which are robust to that
overhead, rather than absolute promises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: Attribution bucket -> the (component, method) pairs that feed it.
HOT_BUCKETS: Tuple[Tuple[str, str], ...] = (
    ("table-walk", "prefetcher.observe / observe_raw"),
    ("issue", "l1.prefetch_trigger"),
    ("coalesce", "sm.coalesce_lines / coalesce_sectors"),
    ("cache", "l1.demand_load / demand_store"),
)


@dataclass
class HotBucket:
    """Accumulated attribution for one component bucket."""

    name: str
    what: str
    calls: int = 0
    seconds: float = 0.0


@dataclass
class HotProfile:
    """The result of one attributed run."""

    app: str
    mechanism: str
    scale: float
    seed: int
    cycles: int
    instructions: int
    wall_s: float
    buckets: List[HotBucket] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(bucket.seconds for bucket in self.buckets)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "mechanism": self.mechanism,
            "scale": self.scale,
            "seed": self.seed,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "wall_s": round(self.wall_s, 4),
            "buckets": {
                bucket.name: {
                    "calls": bucket.calls,
                    "seconds": round(bucket.seconds, 4),
                }
                for bucket in self.buckets
            },
        }

    def render(self) -> str:
        lines = [
            "hot-path attribution: %s under %s (scale=%g seed=%d)"
            % (self.app, self.mechanism, self.scale, self.seed),
            "%d cycles, %d instructions, %.3fs wall"
            % (self.cycles, self.instructions, self.wall_s),
            "",
            "%-12s %10s %10s %7s  %s"
            % ("bucket", "calls", "seconds", "share", "what"),
        ]
        wall = self.wall_s or 1.0
        for bucket in self.buckets:
            lines.append(
                "%-12s %10d %10.4f %6.1f%%  %s"
                % (
                    bucket.name, bucket.calls, bucket.seconds,
                    100.0 * bucket.seconds / wall, bucket.what,
                )
            )
        other = max(0.0, self.wall_s - self.attributed_s)
        lines.append(
            "%-12s %10s %10.4f %6.1f%%  %s"
            % ("other", "-", other, 100.0 * other / wall,
               "event core, schedulers, DRAM/L2, bookkeeping")
        )
        return "\n".join(lines)


class _Meter:
    """Wraps one bound method; adds its wall time to a bucket.

    Timer overhead inside nested wrapped calls would double-count, but
    the wrapped components never call each other (module docstring), so
    plain additive accounting is exact up to counter-read cost.
    """

    def __init__(self, bucket: HotBucket, func: Callable[..., Any]) -> None:
        self.bucket = bucket
        self.func = func

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return self.func(*args, **kwargs)
        finally:
            self.bucket.seconds += time.perf_counter() - start
            self.bucket.calls += 1


def _wrap(obj: Any, name: str, bucket: HotBucket) -> bool:
    func = getattr(obj, name, None)
    if func is None:
        return False
    setattr(obj, name, _Meter(bucket, func))
    return True


def hot_profile_run(
    app: str,
    mechanism: str = "snake",
    scale: float = 1.0,
    seed: int = 1,
) -> HotProfile:
    """Run one workload with the hot components instrumented.

    Telemetry stays *off* so the profile times the simulator, not the
    event sinks.  Module-level coalesce helpers are patched for the
    duration of the run and always restored.
    """
    from repro.gpusim import sm as sm_module
    from repro.gpusim.config import GPUConfig
    from repro.gpusim.gpu import GPU
    from repro.prefetch import build_setup
    from repro.workloads import build_kernel

    setup = build_setup(mechanism, GPUConfig.scaled())
    kernel = build_kernel(app, scale=scale, seed=seed)
    gpu = GPU(
        config=setup.config,
        prefetcher_factory=setup.prefetcher_factory,
        throttle_factory=setup.throttle_factory,
        storage_mode=setup.storage_mode,
    )

    buckets = [HotBucket(name, what) for name, what in HOT_BUCKETS]
    walk, issue, coalesce, cache = buckets
    for core in gpu.sms:
        _wrap(core.prefetcher, "observe", walk)
        _wrap(core.prefetcher, "observe_raw", walk)
        # The SM probes the raw lane once at construction; repoint it at
        # the wrapper (or the probe bypasses the meter entirely).
        if core._pf_observe_raw is not None:
            core._pf_observe_raw = core.prefetcher.observe_raw
        _wrap(core.l1, "prefetch_trigger", issue)
        _wrap(core.l1, "demand_load", cache)
        _wrap(core.l1, "demand_store", cache)

    saved = {
        name: getattr(sm_module, name)
        for name in ("coalesce_lines", "coalesce_sectors")
    }
    for name, func in saved.items():
        setattr(sm_module, name, _Meter(coalesce, func))
    try:
        start = time.perf_counter()
        stats = gpu.run(kernel)
        wall = time.perf_counter() - start
    finally:
        for name, func in saved.items():
            setattr(sm_module, name, func)

    return HotProfile(
        app=app, mechanism=mechanism, scale=scale, seed=seed,
        cycles=stats.cycles, instructions=stats.instructions,
        wall_s=wall, buckets=buckets,
    )


__all__ = ["HOT_BUCKETS", "HotBucket", "HotProfile", "hot_profile_run"]
