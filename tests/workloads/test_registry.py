"""Workload registry (Table 2)."""

import pytest

from repro.workloads import BENCHMARKS, FULL_NAMES, build_kernel
from repro.workloads.patterns import GridShape


class TestTable2:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARKS) == 11

    def test_paper_names(self):
        assert set(BENCHMARKS) == {
            "cp", "lps", "lib", "mum", "backprop", "hotspot", "srad",
            "lud", "nw", "histo", "mrq",
        }

    def test_full_names_cover_all(self):
        assert set(FULL_NAMES) == set(BENCHMARKS)

    def test_suites_mentioned(self):
        text = " ".join(FULL_NAMES.values())
        for suite in ("ISPASS", "Rodinia", "Parboil"):
            assert suite in text


class TestBuildKernel:
    def test_unknown_app(self):
        with pytest.raises(ValueError):
            build_kernel("doom")

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            build_kernel("lps", scale=scale)

    @pytest.mark.parametrize("app", BENCHMARKS)
    def test_builds_and_has_loads(self, app):
        kernel = build_kernel(app, scale=0.25, seed=3)
        assert kernel.num_warps > 0
        rep = kernel.representative_warp()
        assert len(rep.loads()) > 0

    @pytest.mark.parametrize("app", BENCHMARKS)
    def test_deterministic_per_seed(self, app):
        a = build_kernel(app, scale=0.25, seed=3)
        b = build_kernel(app, scale=0.25, seed=3)
        assert [
            (i.pc, i.base_addr) for w in a.all_warps() for i in w.instrs
        ] == [(i.pc, i.base_addr) for w in b.all_warps() for i in w.instrs]

    def test_grid_shape_respected(self):
        kernel = build_kernel("lps", grid=GridShape(num_ctas=2, warps_per_cta=4))
        assert len(kernel.ctas) == 2
        assert all(len(c) == 4 for c in kernel.ctas)

    def test_scale_changes_length(self):
        small = build_kernel("lps", scale=0.25).num_instrs
        large = build_kernel("lps", scale=1.0).num_instrs
        assert large > small

    @pytest.mark.parametrize("app", BENCHMARKS)
    def test_warp_ids_globally_unique(self, app):
        kernel = build_kernel(app, scale=0.25)
        ids = [w.warp_id for w in kernel.all_warps()]
        assert len(ids) == len(set(ids))
