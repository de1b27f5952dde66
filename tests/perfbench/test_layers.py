"""Outside-in layer wrapping: it must not change what the program computes,
and it must leave the program as it found it."""

import pytest

import repro.gpusim.sm as sm_module
from perfbench.layers import COALESCER_NAMES, LAYERS, traced_coalescer
from perfbench.measure import ServeRunner, SimRunner
from perfbench.tracer import Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, SimWorkload

SIM_WORKLOADS = [name for name, w in WORKLOADS.items() if isinstance(w, SimWorkload)]


def _bindings():
    return {name: getattr(sm_module, name) for name in COALESCER_NAMES}


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_traced_repetition_reproduces_the_untraced_digest(name):
    runner = SimRunner(WORKLOADS[name], DEFAULT_SEED, smoke=True)
    plain = runner.rep()
    tracer = Tracer(LAYERS)
    traced = runner.rep(tracer)
    assert traced.digest == plain.digest
    times = tracer.layer_times()
    assert times["gpusim.gpu"].calls == 1
    assert times["gpusim.sm"].calls > 0
    assert times["gpusim.unified_cache.demand"].calls > 0
    # Nothing is left unattributed: the layers' self times add up to the
    # root span exactly when no wrapper cost is subtracted.
    assert sum(t.self_s for t in times.values()) == pytest.approx(tracer.root_s)


def test_learner_layers_get_no_calls_without_a_prefetcher():
    tracer = Tracer(LAYERS)
    SimRunner(WORKLOADS["quickstart-none"], DEFAULT_SEED, smoke=True).rep(tracer)
    times = tracer.layer_times()
    for layer in ("core.snake", "core.head_table", "core.tail_table",
                  "gpusim.unified_cache.issue", "serve.state"):
        assert times[layer].calls == 0, layer


def test_serve_repetition_traces_the_service_and_its_learners():
    runner = ServeRunner(WORKLOADS["serve-drain"], DEFAULT_SEED, smoke=True)
    plain = runner.rep()
    tracer = Tracer(LAYERS)
    traced = runner.rep(tracer)
    assert traced.digest == plain.digest
    assert traced.failed == 0
    times = tracer.layer_times()
    sweeps = len(traced.calls)
    assert times["serve.state"].calls >= 2 * sweeps  # apply_batch + predict
    assert times["core.snake"].calls > 0
    assert times["core.tail_table"].calls > 0
    assert times["gpusim.sm"].calls == 0


def test_coalescer_bindings_are_restored_after_a_traced_run():
    before = _bindings()
    SimRunner(WORKLOADS["quickstart-snake"], DEFAULT_SEED, smoke=True).rep(Tracer(LAYERS))
    assert _bindings() == before


def test_coalescer_bindings_are_restored_when_the_run_raises():
    before = _bindings()
    tracer = Tracer(LAYERS)
    with pytest.raises(RuntimeError):
        with traced_coalescer(tracer):
            assert all(
                getattr(sm_module, name) is not fn for name, fn in before.items()
            )
            raise RuntimeError("simulated failure mid-run")
    assert _bindings() == before
