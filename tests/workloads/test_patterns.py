"""Workload pattern building blocks."""

import pytest

from repro.gpusim.trace import Op
from repro.workloads.patterns import (
    ChainLink,
    GridShape,
    WarpProgram,
    array_base,
    assemble,
    scaled_iters,
)


class TestWarpProgram:
    def test_chain_iteration_addresses(self):
        links = [ChainLink(pc=0x10, offset=0), ChainLink(pc=0x20, offset=400)]
        program = WarpProgram(warp_id=0).chain_iteration(links, pointer=1000,
                                                         alu_between=0)
        loads = program.build().loads()
        assert [(i.pc, i.base_addr) for i in loads] == [(0x10, 1000), (0x20, 1400)]

    def test_chain_iteration_interleaves_alu(self):
        links = [ChainLink(pc=0x10, offset=0), ChainLink(pc=0x20, offset=4)]
        program = WarpProgram(warp_id=0).chain_iteration(links, 0, alu_between=1)
        ops = [i.op for i in program.build()]
        assert ops == [Op.LOAD, Op.ALU, Op.LOAD, Op.ALU]

    def test_streaming_loop(self):
        program = WarpProgram(warp_id=0).streaming_loop(
            pc=0x10, base=0, stride=512, iters=3, alu_between=0
        )
        assert [i.base_addr for i in program.build().loads()] == [0, 512, 1024]

    def test_random_loads_within_region(self):
        import random

        program = WarpProgram(warp_id=0).random_loads(
            0x10, region_base=1 << 20, region_bytes=4096, count=20,
            rng=random.Random(7), alu_between=0,
        )
        for instr in program.build().loads():
            assert (1 << 20) <= instr.base_addr < (1 << 20) + 4096

    def test_negative_addresses_clamped(self):
        program = WarpProgram(warp_id=0).load(0x10, -500).store(0x18, -500)
        assert [i.base_addr for i in program.build()] == [0, 0]

    def test_builder_chains(self):
        trace = (
            WarpProgram(warp_id=3)
            .alu(0x10)
            .load(0x20, 128)
            .store(0x30, 256)
            .barrier(0x40)
            .sfu(0x50)
            .build()
        )
        assert [i.op for i in trace] == [Op.ALU, Op.LOAD, Op.STORE, Op.BARRIER, Op.SFU]


class TestGridShape:
    def test_warp_slot_linear(self):
        grid = GridShape(num_ctas=4, warps_per_cta=8)
        assert grid.warp_slot(0, 0) == 0
        assert grid.warp_slot(1, 0) == 8
        assert grid.warp_slot(2, 3) == 19
        assert grid.total_warps == 32

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            GridShape(num_ctas=0)


class TestHelpers:
    def test_array_bases_distinct_and_far(self):
        assert array_base(1) - array_base(0) >= (1 << 26)

    def test_scaled_iters_floor(self):
        assert scaled_iters(20, 0.0) == 2
        assert scaled_iters(20, 1.0) == 20
        assert scaled_iters(20, 0.5) == 10

    def test_assemble_renumbers(self):
        from repro.gpusim.trace import WarpTrace

        kernel = assemble("k", [[WarpTrace(warp_id=9)], [WarpTrace(warp_id=9)]])
        assert [w.warp_id for w in kernel.all_warps()] == [0, 1]
        assert kernel.ctas[1].cta_id == 1
