"""Which public calls make up each layer, and how they are wrapped.

Every wrapper is installed from outside on *instances* (or, for the
coalescer, on the names ``repro.gpusim.sm`` calls), so the program runs
the same code with tracing on as with it off.  Methods are looked up with
``getattr(..., None)``: a method the program later deletes drops out of
its layer instead of breaking the benchmark.  Layers are named after the
module that implements them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from .tracer import Tracer

#: Every layer, in report order.  ``bench.load`` is the benchmark's own
#: closed-loop caller and the root span of every traced repetition.
LAYERS = (
    "bench.load",
    "gpusim.gpu",
    "gpusim.sm",
    "gpusim.scheduler",
    "gpusim.coalescer",
    "gpusim.unified_cache.demand",
    "gpusim.unified_cache.issue",
    "gpusim.interconnect",
    "gpusim.l2",
    "gpusim.dram",
    "core.throttle",
    "core.snake",
    "core.head_table",
    "core.tail_table",
    "serve.state",
)

COALESCER_NAMES = ("coalesce", "coalesce_lines", "coalesce_sectors")


def wrap_methods(tracer: Tracer, layer: str, obj: Any, names: Sequence[str]) -> None:
    """Shadow each named method that ``obj`` has with a traced wrapper."""
    for name in names:
        method = getattr(obj, name, None)
        if method is not None:
            setattr(obj, name, tracer.wrap(layer, method))


def trace_learner(tracer: Tracer, prefetcher: Any) -> Any:
    """Wrap a prefetcher's observe lanes and its Head/Tail tables.

    Must run before an SM is built around the prefetcher, because the SM
    looks its observe lanes up once, at construction.
    """
    wrap_methods(
        tracer, "core.snake", prefetcher, ("observe", "observe_raw", "observe_batch")
    )
    tables = getattr(prefetcher, "tables", None)
    for _app, head, tail in tables() if tables is not None else ():
        wrap_methods(tracer, "core.head_table", head, ("update", "update_batch"))
        wrap_methods(
            tracer, "core.tail_table", tail,
            ("find", "walk_raw", "record", "record_intra", "record_inter_warp"),
        )
    return prefetcher


def traced_factories(
    tracer: Tracer,
    prefetcher_factory: Callable[[], Any],
    throttle_factory: Callable[[], Any],
) -> "tuple[Callable[[], Any], Callable[[], Any]]":
    """Prefetcher and throttle factories whose products are traced."""

    def make_prefetcher() -> Any:
        return trace_learner(tracer, prefetcher_factory())

    def make_throttle() -> Any:
        throttle = throttle_factory()
        wrap_methods(tracer, "core.throttle", throttle, ("allow", "chain_depth_limit"))
        return throttle

    return make_prefetcher, make_throttle


def trace_gpu(tracer: Tracer, gpu: Any) -> None:
    """Wrap the simulator's layers on a built ``GPU``."""
    wrap_methods(tracer, "gpusim.gpu", gpu, ("run",))
    wrap_methods(tracer, "gpusim.l2", gpu.l2, ("access",))
    wrap_methods(tracer, "gpusim.dram", gpu.dram, ("access",))
    for sm in gpu.sms:
        wrap_methods(tracer, "gpusim.sm", sm, ("step_event",))
        wrap_methods(tracer, "gpusim.scheduler", sm.scheduler, ("pick", "note_issued"))
        wrap_methods(
            tracer, "gpusim.unified_cache.demand", sm.l1, ("demand_load", "demand_store")
        )
        wrap_methods(
            tracer, "gpusim.unified_cache.issue", sm.l1, ("prefetch_trigger", "prefetch")
        )
        wrap_methods(tracer, "gpusim.interconnect", sm.icnt_req, ("send",))
        wrap_methods(tracer, "gpusim.interconnect", sm.icnt_resp, ("send",))


@contextmanager
def traced_coalescer(tracer: Tracer) -> Iterator[None]:
    """Trace the coalescer functions as ``repro.gpusim.sm`` binds them;
    the original bindings are restored on exit, also when the body raises."""
    import repro.gpusim.sm as sm_module

    saved = {
        name: getattr(sm_module, name)
        for name in COALESCER_NAMES
        if getattr(sm_module, name, None) is not None
    }
    try:
        for name, fn in saved.items():
            setattr(sm_module, name, tracer.wrap("gpusim.coalescer", fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(sm_module, name, fn)


def trace_service(tracer: Tracer, state: Any) -> None:
    """Wrap a ``ServiceState``'s public calls and every admitted learner."""
    wrap_methods(tracer, "serve.state", state, ("apply_batch", "apply", "predict"))
    for session in state.sessions.values():
        for learner in session.shards:
            trace_learner(tracer, learner)


__all__ = [
    "COALESCER_NAMES",
    "LAYERS",
    "trace_gpu",
    "trace_learner",
    "trace_service",
    "traced_coalescer",
    "traced_factories",
    "wrap_methods",
]
