"""Differential tests for the event-driven skip-ahead core and the SM
issue path.

The contract (docs/PERFORMANCE.md): the event core and the naive
reference loop in ``reference_loop.py`` are **cycle-identical** — not
statistically close, byte-equal on every counter, for every mechanism,
storage mode, topology, scheduler, and even under chaos faults (the
shared RNG stream must be consulted in the same order at the same
cycles).  The reference loop issues through its own naive copy of the
issue path, so these tests pin ``SM._issue`` as well as the event core.
"""

import pytest

from repro.gpusim import FaultInjector, FaultPlan, GPUConfig, simulate
from repro.workloads import build_kernel

from . import reference_loop

SCALE = 0.15


def event_and_reference(run):
    """``run()`` on the event core, then again with the reference loop
    installed; returns both results."""
    event = run()
    with pytest.MonkeyPatch.context() as monkeypatch:
        reached = reference_loop.install(monkeypatch)
        reference = run()
    assert reached["issue"] > 0, "the reference loop never issued"
    return event, reference


def both_loops(app, mechanism, scale=SCALE, seed=1, config=None, **kwargs):
    """Run one cell on the event core and the reference loop; returns
    the two SimStats dicts."""
    return event_and_reference(lambda: simulate(
        build_kernel(app, scale=scale, seed=seed),
        prefetcher=mechanism,
        config=config or GPUConfig.scaled(),
        **kwargs,
    ).as_dict())


class TestCycleIdentical:
    @pytest.mark.parametrize("app,mechanism", [
        ("lps", "none"),
        ("lps", "snake"),
        ("hotspot", "snake"),
        ("hotspot", "intra"),
        ("backprop", "s-snake"),
        ("backprop", "none"),
        ("mrq", "snake"),
        ("mum", "snake-dt"),
    ])
    def test_stats_identical_across_mechanisms(self, app, mechanism):
        event, legacy = both_loops(app, mechanism)
        assert event == legacy

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_stats_identical_across_seeds(self, seed):
        event, legacy = both_loops("lps", "snake", seed=seed)
        assert event == legacy

    def test_stats_identical_on_wider_gpu(self):
        config = GPUConfig.scaled(num_sms=4)
        event, legacy = both_loops("hotspot", "snake", config=config)
        assert event == legacy

    @pytest.mark.parametrize("scheduler", ["rr", "two_level"])
    @pytest.mark.parametrize("app", ["lps", "backprop"])
    def test_stats_identical_across_schedulers(self, scheduler, app):
        config = GPUConfig.scaled().with_(scheduler=scheduler)
        event, legacy = both_loops(app, "snake", config=config)
        assert event == legacy

    def test_stats_identical_with_sectored_l1(self):
        config = GPUConfig.scaled().with_(l1_sector_bytes=32)
        event, legacy = both_loops("lps", "snake", config=config)
        assert event == legacy

    def test_barrier_kernel_identical_with_sectored_l1(self):
        config = GPUConfig.scaled().with_(l1_sector_bytes=32)
        event, legacy = both_loops("backprop", "snake", config=config)
        assert event == legacy

    def test_stats_identical_with_sanitizer(self):
        """The sanitizer audits invariants mid-run; it must see the same
        state at the same audit points under both loops."""
        config = GPUConfig.scaled().with_(sanitize=True)
        event, legacy = both_loops("backprop", "snake", config=config)
        assert event == legacy


class TestFigureCSVs:
    def test_sweep_csv_identical(self, tmp_path):
        """The figure pipeline (in-process sweep -> coverage matrix ->
        CSV) must produce byte-identical files from either loop.  The
        in-process runner (``jobs=0``) sees the installed loop."""
        from repro.analysis import export
        from repro.analysis.experiments import figure16_from
        from repro.runner import grid_specs, run_jobs

        def sweep_csv():
            specs = grid_specs(
                ["lps", "hotspot"], ["none", "snake"],
                config=GPUConfig.scaled(), scale=SCALE, seed=1,
            )
            result = run_jobs(specs, jobs=0)
            assert result.ok
            out = tmp_path / "fig16.csv"
            export.to_csv(figure16_from(result.cells()), str(out))
            return out.read_bytes()

        event, reference = event_and_reference(sweep_csv)
        assert event == reference


class _FaultRecorder:
    """Minimal BusLike that records every FaultEvent's firing site/cycle."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(
            (event.cycle, event.sm_id, event.site, event.detail)
        )


class TestChaosParity:
    def test_faults_fire_at_the_same_cycles(self):
        """Chaos injection consults one seeded RNG stream in simulation
        order; if the event core visited components in any different
        order the firing sequence (site, cycle) would diverge."""

        def chaos_run():
            recorder = _FaultRecorder()
            injector = FaultInjector(
                FaultPlan.storm(seed=3, delay_cycles=200), obs=recorder
            )
            kernel = build_kernel("hotspot", scale=SCALE, seed=1)
            result = simulate(
                kernel, prefetcher="snake", config=GPUConfig.scaled(),
                faults=injector,
            )
            assert injector.total_fired > 0
            return recorder.events, result.as_dict()

        (event_trace, event_stats), (ref_trace, ref_stats) = (
            event_and_reference(chaos_run)
        )
        assert event_trace == ref_trace
        assert event_stats == ref_stats


class TestReferenceLoop:
    def test_installed_loop_never_calls_the_event_step(self, monkeypatch):
        """The differential tests above are only meaningful if the
        reference really replaces the event core."""
        from repro.gpusim.sm import SM

        def unreachable(sm):
            raise AssertionError("SM.step_event ran under the reference loop")

        reached = reference_loop.install(monkeypatch)
        monkeypatch.setattr(SM, "step_event", unreachable)
        stats = simulate(
            build_kernel("lps", scale=SCALE, seed=1), prefetcher="snake"
        )
        assert stats.instructions > 0
        assert reached["issue"] > 0
