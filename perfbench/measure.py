"""Measure one workload in this process and print its metrics.

A run has three parts:

1. one untimed repetition, which warms the interpreter and is checked
   like every other;
2. timed repetitions with tracing off, for at least ``--seconds`` and at
   least ``MIN_REPS`` of them; they give the end-to-end metrics;
3. with ``--trace 1`` only, one more repetition with every layer wrapped,
   which gives the per-layer metrics.

Every timed repetition and set-up runs between two runs of the
yardstick (:mod:`perfbench.yardstick`), and its times are reported in
reference-host seconds, so that the host's drifting speed cancels out.
Only the ``host.*`` per-layer metrics give host seconds as measured.

Every repetition's output is checked: the sha256 of its statistics must
equal the digest committed in ``digests.json`` where one applies (the
default seed, or any seed for a workload whose inputs ignore it) and
otherwise the digest of the run's first repetition.  A simulation must
also pass ``SimStats.verify()``; a serve record answered ``None`` fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import run_seconds, use_checkout_src
from .layers import (
    LAYERS, trace_gpu, trace_service, traced_coalescer, traced_factories,
)
from .tracer import Tracer, calibrate
from .workloads import DEFAULT_SEED, WORKLOADS, ServeWorkload, SimWorkload, Workload
from .yardstick import HostScale

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_REPS = 3  # timed repetitions, however long they take

#: Reported with ``--trace 0``; times in reference-host seconds.
END_TO_END = {
    "ops_per_ref_s": "1/s",
    "call_p50_ref_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Modelled-GPU statistics, deterministic per (workload, seed).
MODEL = {
    "model.ipc": "instr/cycle",
    "model.l1.hit_rate": "fraction",
    "model.l1.reservation_fail_rate": "fraction",
    "model.l2.hit_rate": "fraction",
    "model.dram.row_hit_rate": "fraction",
    "model.noc.bandwidth_utilization": "fraction",
    "model.sm.memory_stall_fraction": "fraction",
    "model.prefetch.issued": "count",
    "model.prefetch.dropped_throttled": "count",
    "model.prefetch.coverage": "fraction",
    "model.prefetch.timely_coverage": "fraction",
    "model.prefetch.issue_accuracy": "fraction",
    "model.prefetch.table_accesses": "count",
}

#: Reported with ``--trace 1``.
PER_LAYER = {
    **{
        "%s.%s" % (layer, part): unit
        for layer in LAYERS
        for part, unit in (("calls", "count"), ("self_s", "s"), ("self_frac", "fraction"))
    },
    "workloads.build_s": "s",
    "gpusim.gpu.init_s": "s",
    "serve.state.init_s": "s",
    "serve.state.sweep_p50_us": "us",
    "serve.state.sweep_p99_us": "us",
    "serve.state.predict_p50_us": "us",
    "serve.state.predict_p99_us": "us",
    "serve.degraded_frac": "fraction",
    "host.ops_per_s": "1/s",
    "host.call_p50_ms": "ms",
    "host.setup_s": "s",
    "host.yardstick_ms": "ms",
    **MODEL,
    "trace.overhead_frac": "fraction",
    "trace.wrapper_frac": "fraction",
    "trace.residual_frac": "fraction",
    "trace.span_cost_ns": "ns",
    "trace.spans": "count",
}


def canonical_digest(data: Any) -> str:
    """sha256 of ``data`` as canonical JSON."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Rep:
    """One repetition's measurements and output."""

    build_s: float  # sim: build_setup + build_kernel
    init_s: float  # sim: GPU(...); serve: ServiceState(...) + admits
    wall_s: float  # sim: GPU.run; serve: the whole drain loop
    ops: int  # warp instructions simulated, or records applied
    calls: List[float]  # sim: [GPU.run]; serve: every apply_batch sweep
    attempted: int
    failed: int
    digest: str
    reads: List[float] = field(default_factory=list)  # serve: predict calls
    model: Dict[str, float] = field(default_factory=dict)
    degraded_frac: float = 0.0
    scale: float = 1.0  # host seconds to reference-host seconds


class SimRunner:
    ops = 1  # one simulation per repetition

    def __init__(self, workload: SimWorkload, seed: int, smoke: bool) -> None:
        self.workload, self.seed, self.smoke = workload, seed, smoke

    def set_up(self, tracer: Optional[Tracer] = None) -> Tuple[float, float, Any, Any]:
        from repro.gpusim.gpu import GPU

        clock = time.perf_counter
        start = clock()
        setup, kernel = self.workload.build(self.seed, self.smoke)
        built = clock()
        make_prefetcher, make_throttle = setup.prefetcher_factory, setup.throttle_factory
        if tracer is not None:
            make_prefetcher, make_throttle = traced_factories(
                tracer, make_prefetcher, make_throttle
            )
        gpu = GPU(
            config=setup.config,
            prefetcher_factory=make_prefetcher,
            throttle_factory=make_throttle,
            storage_mode=setup.storage_mode,
        )
        return built - start, clock() - built, gpu, kernel

    def rep(self, tracer: Optional[Tracer] = None) -> Rep:
        build_s, init_s, gpu, kernel = self.set_up(tracer)
        run, coalescer = gpu.run, contextlib.nullcontext()
        if tracer is not None:
            trace_gpu(tracer, gpu)
            run, coalescer = tracer.wrap("bench.load", gpu.run), traced_coalescer(tracer)
        with coalescer:
            start = time.perf_counter()
            stats = run(kernel)
            wall = time.perf_counter() - start
        stats.verify()
        return Rep(
            build_s=build_s, init_s=init_s, wall_s=wall, ops=stats.instructions,
            calls=[wall], attempted=1, failed=0,
            digest=canonical_digest(stats.to_json_dict()),
            model=model_metrics(stats),
        )


class ServeRunner:
    def __init__(self, workload: ServeWorkload, seed: int, smoke: bool) -> None:
        from repro.serve import ServeSettings

        self.workload = workload
        self.clients, self.records = workload.records(seed, smoke)
        self.sweep = ServeSettings().batch_limit
        # Every record applied, plus one predict read per sweep.
        count = len(self.records)
        self.ops = count + -(-count // self.sweep)

    def set_up(self) -> Tuple[float, float, Any, Any]:
        from repro.serve.state import ServeConfig, ServiceState

        start = time.perf_counter()
        state = ServiceState(ServeConfig())
        for client in self.clients:
            if not state.admit(client).ok:
                raise RuntimeError("client %s was not admitted" % client)
        return 0.0, time.perf_counter() - start, state, None

    def rep(self, tracer: Optional[Tracer] = None) -> Rep:
        _, init_s, state, _ = self.set_up()
        drain = self.drain
        if tracer is not None:
            trace_service(tracer, state)
            drain = tracer.wrap("bench.load", drain)
        start = time.perf_counter()
        sweeps, reads, unanswered = drain(state)
        wall = time.perf_counter() - start
        applied = state.counters["applied"]
        return Rep(
            build_s=0.0, init_s=init_s, wall_s=wall, ops=applied, calls=sweeps,
            reads=reads, attempted=len(self.records) + len(reads),
            failed=unanswered, digest=state.state_digest(),
            degraded_frac=state.counters["degraded"] / applied if applied else 0.0,
        )

    def drain(self, state: Any) -> Tuple[List[float], List[float], int]:
        """Apply every record in sweeps of the worker's ``batch_limit``,
        with one predict read of the sweep's last record after each;
        returns the sweep and read times and the number of records left
        unanswered."""
        clock = time.perf_counter
        apply_batch, predict = state.apply_batch, state.predict
        records, size = self.records, self.sweep
        sweeps: List[float] = []
        reads: List[float] = []
        unanswered = 0
        for i in range(0, len(records), size):
            batch = records[i:i + size]
            start = clock()
            results = apply_batch(batch)
            applied = clock()
            answer = predict(*batch[-1])
            sweeps.append(applied - start)
            reads.append(clock() - applied)
            unanswered += len(batch) - len(results) + results.count(None)
            unanswered += answer is None
        return sweeps, reads, unanswered


def make_runner(workload: Workload, seed: int, smoke: bool) -> Any:
    if isinstance(workload, SimWorkload):
        return SimRunner(workload, seed, smoke)
    return ServeRunner(workload, seed, smoke)


def model_metrics(stats: Any) -> Dict[str, float]:
    p = stats.prefetch
    l2 = stats.l2_hits + stats.l2_misses
    rows = stats.dram_row_hits + stats.dram_row_misses
    return {
        "model.ipc": stats.ipc,
        "model.l1.hit_rate": stats.l1_hit_rate,
        "model.l1.reservation_fail_rate": stats.reservation_fail_rate,
        "model.l2.hit_rate": stats.l2_hits / l2 if l2 else 0.0,
        "model.dram.row_hit_rate": stats.dram_row_hits / rows if rows else 0.0,
        "model.noc.bandwidth_utilization": stats.bandwidth_utilization,
        "model.sm.memory_stall_fraction": stats.memory_stall_fraction,
        "model.prefetch.issued": p.issued,
        "model.prefetch.dropped_throttled": p.dropped_throttled,
        "model.prefetch.coverage": stats.coverage,
        "model.prefetch.timely_coverage": stats.timely_coverage,
        "model.prefetch.issue_accuracy": stats.prefetch_accuracy,
        "model.prefetch.table_accesses": p.table_accesses,
    }


def expected_digest(workload: Workload, seed: int, smoke: bool) -> Optional[str]:
    """The committed digest this run must reproduce, or None when the
    seed changes the inputs and is not the one the digests were taken at."""
    if workload.seeded and seed != DEFAULT_SEED:
        return None
    committed = json.loads(DIGESTS.read_text())
    mode = "smoke" if smoke else "full"
    digest = committed.get(mode, {}).get(workload.name)
    if digest is None:
        raise KeyError("digests.json has no %s digest for %s" % (mode, workload.name))
    return digest


class Ledger:
    """Counts attempted and failed operations across a run's repetitions."""

    def __init__(self, expected: Optional[str]) -> None:
        self.reference = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def attempt(self, rep: Callable[[], Rep], ops: int) -> Optional[Rep]:
        """Run one repetition; ``ops`` is what it attempts if it raises."""
        try:
            result = rep()
        except Exception:  # any exception fails the repetition, and is shown
            self.attempted += ops
            self.failed += ops
            self.errors.append(traceback.format_exc())
            return None
        if self.reference is None:
            self.reference = result.digest
        if result.digest != self.reference:
            self.errors.append(
                "digest %s differs from expected %s" % (result.digest, self.reference)
            )
            result.failed = result.attempted
        self.attempted += result.attempted
        self.failed += result.failed
        return result if result.failed == 0 else None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    spans_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run ``workload`` and return the result object ``run.py`` prints."""
    runner = make_runner(workload, seed, smoke)
    ledger = Ledger(expected_digest(workload, seed, smoke))
    min_reps = 1 if smoke else MIN_REPS
    min_setups = 1 if smoke else workload.min_setups

    ledger.attempt(runner.rep, runner.ops)  # untimed: warm-up and check
    host = HostScale()
    reps: List[Rep] = []
    tries = 0
    start = time.perf_counter()
    while tries < min_reps or time.perf_counter() - start < seconds:
        gc.collect()
        rep, scale = host.around(lambda: ledger.attempt(runner.rep, runner.ops))
        tries += 1
        if rep is not None:
            rep.scale = scale
            reps.append(rep)
    # (build_s, init_s, scale) of every set-up.
    setups = [(r.build_s, r.init_s, r.scale) for r in reps]
    while reps and len(setups) < min_setups:
        gc.collect()
        (build_s, init_s, _, _), scale = host.around(runner.set_up)
        setups.append((build_s, init_s, scale))

    raw = {
        "host.ops_per_s": _median([r.ops / r.wall_s for r in reps]),
        "host.call_p50_ms": 1e3 * _median([c for r in reps for c in r.calls]),
        "host.setup_s": _median([b + i for b, i, _ in setups]),
        "host.yardstick_ms": 1e3 * _median(host.times),
    }
    if not trace:
        metrics = {
            "ops_per_ref_s": _median([r.ops / (r.wall_s * r.scale) for r in reps]),
            "call_p50_ref_ms": 1e3 * _median([c * r.scale for r in reps for c in r.calls]),
            "setup_s": _median([(b + i) * s for b, i, s in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics = _traced(runner, ledger, reps, host, spans_path)
        metrics.update(raw)
        sim = isinstance(workload, SimWorkload)
        builds = _median([b * s for b, _, s in setups])
        inits = _median([i * s for _, i, s in setups])
        metrics["workloads.build_s"] = builds if sim else 0.0
        metrics["gpusim.gpu.init_s"] = inits if sim else 0.0
        metrics["serve.state.init_s"] = 0.0 if sim else inits
        sweeps = [c * r.scale for r in reps for c in r.calls] if not sim else []
        reads = [c * r.scale for r in reps for c in r.reads]
        for name, samples, q in (
            ("sweep_p50_us", sweeps, 50), ("sweep_p99_us", sweeps, 99),
            ("predict_p50_us", reads, 50), ("predict_p99_us", reads, 99),
        ):
            metrics["serve.state." + name] = 1e6 * percentile(samples, q) if samples else 0.0
        units = PER_LAYER
    for error in ledger.errors:
        print(error, file=sys.stderr)
    return {
        "correct": ledger.failed == 0 and not ledger.errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


def _traced(
    runner: Any, ledger: Ledger, reps: List[Rep], host: HostScale,
    spans_path: Optional[Path],
) -> Dict[str, float]:
    """One repetition with every layer wrapped; per-layer metrics.

    Self times are less only the calibrated wrapper cost.  What tracing
    costs beyond it stays in the layers' self times, and
    ``trace.residual_frac`` says by how much their sum exceeds the
    untraced median.  Times are in reference-host seconds, with the
    wrapper calibration and the traced repetition between the same two
    yardstick runs.
    """
    tracer = Tracer(LAYERS)
    gc.collect()

    def calibrated_rep() -> Tuple[Any, Optional[Rep]]:
        return calibrate(), ledger.attempt(lambda: runner.rep(tracer), runner.ops)

    (cost, rep), scale = host.around(calibrated_rep)
    if spans_path is not None:
        spans_path.write_text(json.dumps(tracer.chrome_trace()))
    root = tracer.root_s * scale
    untraced = _median([r.wall_s * r.scale for r in reps])
    times = tracer.layer_times(cost)
    attributed = sum(t.self_s for t in times.values()) * scale
    metrics: Dict[str, float] = {}
    for layer, t in times.items():
        metrics[layer + ".calls"] = t.calls
        metrics[layer + ".self_s"] = t.self_s * scale
        metrics[layer + ".self_frac"] = t.self_s * scale / attributed if attributed > 0 else 0.0
    metrics.update({
        "trace.overhead_frac": root / untraced - 1.0 if untraced > 0 else 0.0,
        "trace.wrapper_frac": tracer.wrapper_s(cost) * scale / root if root > 0 else 0.0,
        "trace.residual_frac": attributed / untraced - 1.0 if untraced > 0 else 0.0,
        "trace.span_cost_ns": cost.per_span * scale * 1e9,
        "trace.spans": tracer.spans,
    })
    if rep is not None:
        metrics.update(rep.model)
        metrics["serve.degraded_frac"] = rep.degraded_frac
    return metrics


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Measure one perfbench workload and print its metrics.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="timed seconds (default: run_seconds in BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and one timed repetition (checks wiring, not speed)",
    )
    parser.add_argument(
        "--spans", type=Path,
        help="with --trace 1, write the traced repetition's spans here "
        "as Chrome trace JSON",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    use_checkout_src()
    seconds = run_seconds() if args.seconds is None else args.seconds
    result = measure(
        WORKLOADS[args.workload], args.seed, seconds, bool(args.trace),
        smoke=args.smoke, spans_path=args.spans,
    )
    for name, metric in result["metrics"].items():
        print("%-36s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Rep",
    "canonical_digest",
    "main",
    "make_runner",
    "measure",
    "percentile",
]
