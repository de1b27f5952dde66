"""Trace model types."""

import dataclasses

import pytest

from repro.gpusim.trace import (
    CTA,
    KernelTrace,
    Op,
    PLAIN_OPS,
    PlainInstrs,
    WarpInstr,
    WarpTrace,
    renumber_warps,
)


def load(pc, addr, stride=4):
    return WarpInstr(pc=pc, op=Op.LOAD, base_addr=addr, thread_stride=stride)


class TestWarpInstr:
    def test_is_mem(self):
        assert load(0x10, 0).is_mem
        assert WarpInstr(pc=0x10, op=Op.STORE, base_addr=0).is_mem
        assert not WarpInstr(pc=0x10, op=Op.ALU).is_mem

    def test_rejects_negative_pc(self):
        with pytest.raises(ValueError):
            WarpInstr(pc=-1, op=Op.ALU)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            WarpInstr(pc=0, op=Op.LOAD, base_addr=-4)

    @pytest.mark.parametrize("op", PLAIN_OPS)
    @pytest.mark.parametrize("operands", [
        dict(base_addr=4096, thread_stride=4), dict(base_addr=4096),
        dict(base_addr=-4), dict(thread_stride=-4), dict(size_bytes=8),
        dict(divergent=True),
    ])
    def test_address_free_op_rejects_operands(self, op, operands):
        """``[16, "alu"]`` is all the trace format keeps of an ALU
        instruction, so one carrying operands could not round-trip."""
        with pytest.raises(ValueError, match=op.name):
            WarpInstr(16, op, **operands)

    def test_frozen(self):
        for instr in (load(0x10, 0), PlainInstrs(Op.ALU)[0x10]):
            with pytest.raises(dataclasses.FrozenInstanceError):
                instr.pc = 5

    def test_value_semantics(self):
        a = WarpInstr(0x10, Op.LOAD, 64, 4, 8, True)
        b = WarpInstr(pc=0x10, op=Op.LOAD, base_addr=64, thread_stride=4,
                      size_bytes=8, divergent=True)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != WarpInstr(0x10, Op.LOAD, 64, 4, 8, False)
        assert repr(a) == (
            "WarpInstr(pc=16, op=<Op.LOAD: 'load'>, base_addr=64, "
            "thread_stride=4, size_bytes=8, divergent=True)"
        )
        assert WarpInstr(0x10, Op.ALU) == WarpInstr(pc=0x10, op=Op.ALU,
                                                   base_addr=0, thread_stride=0,
                                                   size_bytes=4, divergent=False)


class TestPlainInstrs:
    @pytest.mark.parametrize("op", PLAIN_OPS)
    def test_one_shared_instr_per_pc(self, op):
        table = PlainInstrs(op)
        first = table[0x40]
        assert first == WarpInstr(pc=0x40, op=op)
        assert table[0x40] is first
        assert table[0x48] is not first

    @pytest.mark.parametrize("op", [Op.LOAD, Op.STORE])
    def test_memory_ops_rejected(self, op):
        with pytest.raises(ValueError, match=op.name):
            PlainInstrs(op)

    def test_negative_pc_rejected(self):
        with pytest.raises(ValueError, match="pc"):
            PlainInstrs(Op.ALU)[-8]

    def test_limit_bounds_the_table_not_the_answers(self):
        table = PlainInstrs(Op.SFU)
        kept = [table[8 * i] for i in range(PlainInstrs.LIMIT)]
        extra = table[8 * PlainInstrs.LIMIT]
        assert len(table) == PlainInstrs.LIMIT
        assert table[0] is kept[0] and table[8] is kept[1]
        assert extra == WarpInstr(pc=8 * PlainInstrs.LIMIT, op=Op.SFU)
        assert table[8 * PlainInstrs.LIMIT] is not extra


class TestWarpTrace:
    def test_loads_filters(self):
        trace = WarpTrace(warp_id=0, instrs=[load(1, 0), WarpInstr(pc=2, op=Op.ALU)])
        assert [i.pc for i in trace.loads()] == [1]

    def test_len_and_iter(self):
        trace = WarpTrace(warp_id=0)
        trace.append(load(1, 0))
        trace.append(load(2, 4))
        assert len(trace) == 2
        assert [i.pc for i in trace] == [1, 2]


class TestKernelTrace:
    def _kernel(self):
        w0 = WarpTrace(warp_id=0, instrs=[load(1, 0)])
        w1 = WarpTrace(warp_id=1, instrs=[load(1, 0), load(2, 8)])
        return KernelTrace(name="k", ctas=[CTA(cta_id=0, warps=[w0, w1])])

    def test_counts(self):
        kernel = self._kernel()
        assert kernel.num_warps == 2
        assert kernel.num_instrs == 3

    def test_representative_warp_has_most_loads(self):
        assert self._kernel().representative_warp().warp_id == 1

    def test_representative_warp_empty_kernel(self):
        with pytest.raises(ValueError):
            KernelTrace(name="empty").representative_warp()

    def test_all_warps_in_cta_order(self):
        assert [w.warp_id for w in self._kernel().all_warps()] == [0, 1]


class TestRenumberWarps:
    def test_dense_global_ids(self):
        ctas = [
            CTA(cta_id=0, warps=[WarpTrace(warp_id=99), WarpTrace(warp_id=99)]),
            CTA(cta_id=1, warps=[WarpTrace(warp_id=99)]),
        ]
        renumber_warps(ctas)
        ids = [w.warp_id for c in ctas for w in c.warps]
        assert ids == [0, 1, 2]
