"""Per-PC profiling through the one telemetry path: ``traced_run`` and the
``PCMetricsSink`` rows it returns."""

from repro.obs.runner import traced_run
from repro.obs.sinks import PCMetricsSink, PCStats


def _profile(app, mechanism, scale):
    result = traced_run(app, mechanism, scale=scale, seed=1, chrome=False)
    return result.pc_metrics.pcs_by_accesses()


class TestPCProfile:
    def test_rates_guard_zero(self):
        profile = PCStats(pc=0x10)
        assert profile.hit_rate == 0.0
        assert profile.coverage == 0.0

    def test_rates(self):
        profile = PCStats(pc=0x10, accesses=10, hits=6, covered=4, timely=3)
        assert profile.hit_rate == 0.6
        assert profile.coverage == 0.4

    def test_as_row_mentions_pc(self):
        sink = PCMetricsSink()
        sink.per_pc[0x10] = PCStats(pc=0x10, accesses=1)
        assert "0x10" in sink.render_pc_table()


class TestProfileKernel:
    def test_histo_scatter_pc_uncovered(self):
        """Snake must cover the regular input PCs but not the bin scatter."""
        rows = {r.pc: r for r in _profile("histo", "snake", scale=0.4)}
        assert rows[0xA20].coverage < 0.1  # data-dependent bin reads
        assert rows[0xA10].coverage > rows[0xA20].coverage

    def test_access_counts_cover_trace(self):
        # accesses are per line transaction (including replays), so the
        # total is at least one per static load executed
        from repro.workloads import build_kernel

        rows = _profile("cp", "none", scale=0.3)
        kernel = build_kernel("cp", scale=0.3, seed=1)
        trace_loads = sum(len(w.loads()) for w in kernel.all_warps())
        assert sum(r.accesses for r in rows) >= trace_loads

    def test_sorted_by_access_count(self):
        rows = _profile("lps", "snake", scale=0.3)
        counts = [r.accesses for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_baseline_has_no_coverage(self):
        rows = _profile("lps", "none", scale=0.3)
        assert all(r.covered == 0 for r in rows)
