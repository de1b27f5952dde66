"""Fault injection: plan validation, injector determinism, the
performance-only correctness contract, and telemetry emission.

The load-bearing property here is the one `snake-repro chaos` asserts in
CI: any fault plan may cost cycles but must leave the demand-visible
outcome (committed instructions, finished warps) identical to the
fault-free run, with the conservation sanitizer green throughout.
"""

import pytest

from repro.gpusim import FaultInjector, FaultPlan, GPUConfig, simulate
from repro.gpusim.faults import DEFAULT_RATES, SITES, catalog
from repro.workloads import build_kernel

SANITIZED = GPUConfig.scaled().with_(sanitize=True)


def _kernel(app="lps", scale=0.2, seed=1):
    return build_kernel(app, scale=scale, seed=seed)


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.make({"l3.meltdown": 0.5})

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.make({"icnt.drop_fill": 1.5})

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_cycles"):
            FaultPlan.make({"icnt.delay_fill": 0.1}, delay_cycles=0)

    def test_storm_covers_every_site(self):
        assert dict(FaultPlan.storm().rates) == DEFAULT_RATES
        assert FaultPlan.storm().label() == "storm"

    def test_single_site_label(self):
        plan = FaultPlan.single("l2.latency_spike")
        assert plan.label() == "l2.latency_spike"

    def test_dict_round_trip(self):
        plan = FaultPlan.make(
            {"icnt.drop_fill": 0.1, "snake.tail_corrupt": 0.02},
            seed=9, delay_cycles=250,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_catalog_matches_sites(self):
        assert set(catalog()) == set(SITES) == set(DEFAULT_RATES)


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultPlan.storm(seed=7))
        b = FaultInjector(FaultPlan.storm(seed=7))
        seq_a = [a.should(SITES[i % len(SITES)]) for i in range(500)]
        seq_b = [b.should(SITES[i % len(SITES)]) for i in range(500)]
        assert seq_a == seq_b

    def test_different_seeds_diverge(self):
        a = FaultInjector(FaultPlan.storm(seed=1))
        b = FaultInjector(FaultPlan.storm(seed=2))
        seq_a = [a.should("icnt.delay_fill") for _ in range(500)]
        seq_b = [b.should("icnt.delay_fill") for _ in range(500)]
        assert seq_a != seq_b

    def test_unlisted_site_never_fires(self):
        inj = FaultInjector(FaultPlan.single("icnt.drop_fill", rate=1.0))
        assert not any(inj.should("dram.latency_spike") for _ in range(100))

    def test_delay_jitters_within_band(self):
        inj = FaultInjector(
            FaultPlan.single("l2.latency_spike", rate=1.0, delay_cycles=400)
        )
        delays = [inj.delay("l2.latency_spike") for _ in range(50)]
        assert all(200 <= d <= 800 for d in delays)
        assert inj.counts["l2.latency_spike"] == 50

    def test_faulted_simulation_is_reproducible(self):
        runs = [
            simulate(
                _kernel(), prefetcher="snake", config=SANITIZED,
                faults=FaultInjector(FaultPlan.storm(seed=3)),
            )
            for _ in range(2)
        ]
        assert runs[0].cycles == runs[1].cycles
        assert runs[0].instructions == runs[1].instructions
        assert runs[0].l1_hits == runs[1].l1_hits


class TestCorrectnessContract:
    """Faults cost cycles, never correctness — per site and all at once."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return simulate(_kernel(), prefetcher="snake", config=SANITIZED)

    @pytest.mark.parametrize("site", SITES)
    def test_each_site_preserves_demand_outcome(self, site, baseline):
        injector = FaultInjector(
            FaultPlan.single(site, rate=min(1.0, DEFAULT_RATES[site] * 4))
        )
        stats = simulate(
            _kernel(), prefetcher="snake", config=SANITIZED, faults=injector
        )
        assert injector.total_fired > 0, "site %s never fired" % site
        assert stats.instructions == baseline.instructions
        assert stats.warps_finished == baseline.warps_finished

    def test_storm_preserves_demand_outcome(self, baseline):
        injector = FaultInjector(FaultPlan.storm(seed=11))
        stats = simulate(
            _kernel(), prefetcher="snake", config=SANITIZED, faults=injector
        )
        assert injector.total_fired > 0
        assert stats.instructions == baseline.instructions
        assert stats.warps_finished == baseline.warps_finished
        assert stats.verify() is stats

    def test_tail_corrupt_reaches_snake_inside_composite(self):
        """snake+cta's union exposes its Snake's tables, so the Tail
        corruption site fires there too, and still costs no correctness."""
        clean = simulate(_kernel(), prefetcher="snake+cta", config=SANITIZED)
        injector = FaultInjector(
            FaultPlan.single(
                "snake.tail_corrupt",
                rate=min(1.0, DEFAULT_RATES["snake.tail_corrupt"] * 4),
            )
        )
        stats = simulate(
            _kernel(), prefetcher="snake+cta", config=SANITIZED,
            faults=injector,
        )
        assert injector.counts.get("snake.tail_corrupt", 0) > 0
        assert stats.instructions == clean.instructions
        assert stats.warps_finished == clean.warps_finished

    def test_plan_accepted_directly_by_gpu(self, baseline):
        # simulate()/GPU promote a bare plan to an injector internally
        stats = simulate(
            _kernel(), prefetcher="snake", config=SANITIZED,
            faults=FaultPlan.storm(seed=11),
        )
        assert stats.instructions == baseline.instructions


class TestTelemetry:
    def test_fault_events_reach_the_bus(self):
        from repro.obs import EventBus
        from repro.obs.events import EventKind, Sink

        class RecordingSink(Sink):
            def __init__(self):
                self.events = []

            def accept(self, event):
                self.events.append(event)

        bus = EventBus()
        sink = bus.attach(RecordingSink())
        injector = FaultInjector(FaultPlan.storm(seed=0), obs=bus)
        simulate(
            _kernel(), prefetcher="snake", config=SANITIZED, faults=injector
        )
        faults = [e for e in sink.events if e.kind is EventKind.FAULT]
        assert len(faults) == injector.total_fired > 0
        assert {e.site for e in faults} <= set(SITES)
        assert all(e.cycle >= 0 for e in faults)

    def test_summary_reports_configured_sites_only(self):
        injector = FaultInjector(FaultPlan.single("icnt.drop_fill", rate=1.0))
        injector.fires("icnt.drop_fill")
        assert injector.summary() == {"icnt.drop_fill": 1}


@pytest.mark.slow
class TestChaosSoak:
    """Tier-2: many seeds x several apps, sanitizer armed throughout."""

    APPS = ("lps", "hotspot", "backprop")
    SEEDS = range(5)

    @pytest.mark.parametrize("app", APPS)
    def test_storms_never_break_correctness(self, app):
        kernel = build_kernel(app, scale=0.2, seed=1)
        baseline = simulate(kernel, prefetcher="snake", config=SANITIZED)
        for seed in self.SEEDS:
            injector = FaultInjector(FaultPlan.storm(seed=seed))
            stats = simulate(
                build_kernel(app, scale=0.2, seed=1),
                prefetcher="snake", config=SANITIZED, faults=injector,
            )
            assert stats.instructions == baseline.instructions, (app, seed)
            assert stats.warps_finished == baseline.warps_finished, (app, seed)
            assert stats.verify() is stats
