"""The conservation sanitizer: clean runs stay silent, corrupted state is
caught with the specific broken invariant named, and a sanitize-off GPU
pays nothing."""

import pytest

from repro.gpusim import GPU, GPUConfig, InvariantViolationError, simulate
from repro.gpusim.sanitizer import SimSanitizer
from repro.workloads import build_kernel


def _kernel(app="lps", scale=0.2, seed=1):
    return build_kernel(app, scale=scale, seed=seed)


def _sanitized_config(**overrides):
    return GPUConfig.scaled().with_(sanitize=True, **overrides)


class TestCleanRuns:
    @pytest.mark.parametrize("mech", ["none", "snake", "isolated-snake", "mta"])
    def test_sanitized_run_completes(self, mech):
        stats = simulate(_kernel(), prefetcher=mech, config=_sanitized_config())
        assert stats.warps_finished > 0

    def test_sanitize_does_not_change_results(self):
        kernel = _kernel()
        plain = simulate(kernel, prefetcher="snake")
        audited = simulate(
            _kernel(), prefetcher="snake", config=_sanitized_config()
        )
        assert audited.instructions == plain.instructions
        assert audited.cycles == plain.cycles
        assert audited.l1_hits == plain.l1_hits

    def test_interval_is_respected(self):
        gpu = GPU(config=GPUConfig.scaled())
        gpu.run(_kernel())
        sanitizer = SimSanitizer(gpu, interval=500)
        sanitizer.maybe_check(0)
        assert sanitizer.checks == 1
        sanitizer.maybe_check(499)  # inside the cadence window
        assert sanitizer.checks == 1
        sanitizer.maybe_check(500)
        assert sanitizer.checks == 2

    def test_snapshot_carries_audit_trail(self):
        gpu = GPU(config=GPUConfig.scaled())
        gpu.run(_kernel())
        sanitizer = SimSanitizer(gpu, interval=1000)
        sanitizer.check(1234)
        snap = sanitizer.snapshot()
        assert snap["checks"] == 1
        assert snap["interval"] == 1000
        assert snap["last_clean"]["cycle"] == 1234
        assert len(snap["last_clean"]["sms"]) == len(gpu.sms)


class TestZeroCostOff:
    def test_sanitize_defaults_off(self):
        assert GPUConfig.scaled().sanitize is False

    def test_off_gpu_carries_no_hooks(self):
        gpu = GPU(config=GPUConfig.scaled())
        assert gpu.faults is None
        for sm in gpu.sms:
            assert sm._faults is None
            assert sm.l1._faults is None


class TestViolationDetection:
    """Each corruption is injected into a *finished* healthy GPU and must
    be caught by a fresh audit, with the right invariant named."""

    def _ran_gpu(self, prefetcher="snake"):
        from repro.prefetch import build_setup

        setup = build_setup(prefetcher, GPUConfig.scaled())
        gpu = GPU(
            config=setup.config,
            prefetcher_factory=setup.prefetcher_factory,
            throttle_factory=setup.throttle_factory,
            storage_mode=setup.storage_mode,
        )
        gpu.run(_kernel())
        return gpu

    def _expect(self, gpu, invariant):
        sanitizer = SimSanitizer(gpu)
        with pytest.raises(InvariantViolationError) as err:
            sanitizer.check(10_000)
        assert err.value.invariant == invariant
        assert err.value.cycle == 10_000
        assert err.value.state_dump["violations"]
        assert "sanitizer" in err.value.state_dump
        return err.value

    def test_clean_machine_passes(self):
        SimSanitizer(self._ran_gpu()).check(10_000)  # no raise

    def test_leaked_mshr_entry(self):
        gpu = self._ran_gpu()
        gpu.sms[0].l1._mshr.allocated += 3
        err = self._expect(gpu, "mshr_balance")
        assert "leaked" in str(err)

    def test_priority_horizon_ahead_of_combined(self):
        gpu = self._ran_gpu()
        port = gpu.sms[0].icnt_req
        port.priority_next_free = port.next_free + 1_000
        self._expect(gpu, "icnt_priority")

    def test_rewound_noc_horizon(self):
        gpu = self._ran_gpu()
        sanitizer = SimSanitizer(gpu)
        sanitizer.check(10_000)  # establish the baseline
        port = gpu.sms[0].icnt_req
        port.next_free -= 1
        port.priority_next_free = min(port.priority_next_free, port.next_free)
        with pytest.raises(InvariantViolationError) as err:
            sanitizer.check(12_000)
        assert err.value.invariant == "icnt_monotonic"

    def test_corrupt_tail_table_chain(self):
        gpu = self._ran_gpu("snake")
        corrupted = False
        for sm in gpu.sms:
            for _, _, tail in sm.prefetcher.tables():
                for entry in tail.entries():
                    entry.warp_vector = 1 << 80  # outside the 64-bit field
                    corrupted = True
                    break
        assert corrupted, "snake run left no tail entries to corrupt"
        self._expect(gpu, "snake_table")

    def test_corrupt_tail_table_inside_composite(self):
        """The sanitizer audits the Snake inside snake+cta's union."""
        gpu = self._ran_gpu("snake+cta")
        corrupted = False
        for sm in gpu.sms:
            for _, _, tail in sm.prefetcher.tables():
                for entry in tail.entries():
                    entry.warp_vector = 1 << 80  # outside the 64-bit field
                    corrupted = True
                    break
        assert corrupted, "snake+cta run left no tail entries to corrupt"
        self._expect(gpu, "snake_table")

    def test_stats_conservation_breach(self):
        gpu = self._ran_gpu()
        stats = gpu.sms[0].stats
        stats.prefetch.demand_timely = stats.prefetch.demand_covered + 10
        self._expect(gpu, "stats_conservation")

    def test_cross_layer_breach(self):
        gpu = self._ran_gpu()
        gpu.l2.hits += 7  # phantom L2 traffic no L1 sent
        self._expect(gpu, "l2_conservation")

    def test_dram_conservation_breach(self):
        gpu = self._ran_gpu()
        gpu.dram.reads += 2
        self._expect(gpu, "dram_conservation")


class TestEndToEndDetection:
    def test_violation_escapes_simulate(self):
        """A mid-run corruption surfaces as InvariantViolationError out of
        the public simulate() API when sanitize is on."""
        from repro.gpusim.unified_cache import UnifiedL1Cache

        original = UnifiedL1Cache.demand_load

        def leaky(self, line_addr, now, sector_mask=-1):
            self._mshr.allocated += 1  # phantom allocation
            return original(self, line_addr, now, sector_mask)

        UnifiedL1Cache.demand_load = leaky
        try:
            with pytest.raises(InvariantViolationError) as err:
                simulate(_kernel(), prefetcher="none",
                         config=_sanitized_config())
        finally:
            UnifiedL1Cache.demand_load = original
        assert err.value.invariant == "mshr_balance"
