"""Kernel-trace serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.trace import CTA, KernelTrace, Op, WarpInstr, WarpTrace
from repro.gpusim.traceio import TraceFormatError, load_trace, save_trace
from repro.workloads import build_kernel

from ..workloads.test_trace_digests import plain_instrs_by_key


def instr_strategy():
    mem = st.builds(
        WarpInstr,
        pc=st.integers(0, 1 << 20),
        op=st.sampled_from([Op.LOAD, Op.STORE]),
        base_addr=st.integers(0, 1 << 30),
        thread_stride=st.integers(0, 512),
        size_bytes=st.integers(1, 64),
        divergent=st.booleans(),
    )
    alu = st.builds(
        WarpInstr, pc=st.integers(0, 1 << 20),
        op=st.sampled_from([Op.ALU, Op.SFU, Op.BARRIER]),
    )
    return st.one_of(mem, alu)


class TestRoundTrip:
    def test_benchmark_trace_roundtrips(self, tmp_path):
        kernel = build_kernel("lps", scale=0.25, seed=1)
        path = save_trace(kernel, tmp_path / "lps.trace")
        loaded = load_trace(path)
        assert loaded.name == kernel.name
        assert loaded.num_warps == kernel.num_warps
        assert [
            (i.pc, i.op, i.base_addr, i.thread_stride, i.size_bytes, i.divergent)
            for w in loaded.all_warps() for i in w.instrs
        ] == [
            (i.pc, i.op, i.base_addr, i.thread_stride, i.size_bytes, i.divergent)
            for w in kernel.all_warps() for i in w.instrs
        ]

    @settings(max_examples=25)
    @given(st.lists(instr_strategy(), min_size=0, max_size=30))
    def test_arbitrary_instrs_roundtrip(self, instrs):
        import tempfile
        from pathlib import Path

        kernel = KernelTrace(
            name="prop",
            ctas=[CTA(cta_id=0, warps=[WarpTrace(warp_id=0, instrs=instrs)])],
        )
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_trace(save_trace(kernel, Path(tmp) / "k.trace"))
        assert loaded.num_instrs == len(instrs)
        for orig, back in zip(instrs, loaded.all_warps()[0].instrs):
            assert back.pc == orig.pc and back.op is orig.op
            if orig.is_mem:
                assert back.base_addr == orig.base_addr
                assert back.divergent == orig.divergent


class TestValidation:
    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(json.dumps({"kernel": "x", "version": 99}) + "\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_warp_before_cta(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            json.dumps({"kernel": "x", "version": 1}) + "\n"
            + json.dumps({"warp": 0, "instrs": []}) + "\n"
        )
        with pytest.raises(ValueError):
            load_trace(path)

    def test_rejects_unknown_record(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            json.dumps({"kernel": "x", "version": 1}) + "\n"
            + json.dumps({"mystery": 1}) + "\n"
        )
        with pytest.raises(ValueError):
            load_trace(path)


class TestTraceFormatError:
    """Truncated / corrupt files must fail with the damage located."""

    def test_truncated_file_names_offset_and_record(self, tmp_path):
        kernel = build_kernel("lps", scale=0.1, seed=1)
        path = save_trace(kernel, tmp_path / "lps.trace")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 20])  # cut mid-record
        with pytest.raises(TraceFormatError) as exc:
            load_trace(path)
        assert "truncated" in str(exc.value)
        assert exc.value.record_index > 0
        assert 0 < exc.value.offset < len(raw)
        assert str(path) in str(exc.value)
        # The offset points at the start of the torn line.
        assert raw[: exc.value.offset].endswith(b"\n")

    def test_corrupt_instruction_record(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            json.dumps({"kernel": "x", "version": 1}) + "\n"
            + json.dumps({"cta": 0}) + "\n"
            + json.dumps({"warp": 0, "instrs": [[1, 2, 3]]}) + "\n"
        )
        with pytest.raises(TraceFormatError) as exc:
            load_trace(path)
        assert "corrupt instruction" in str(exc.value)
        assert exc.value.record_index == 2

    def test_unknown_opcode(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            json.dumps({"kernel": "x", "version": 1}) + "\n"
            + json.dumps({"cta": 0}) + "\n"
            + json.dumps({"warp": 0, "instrs": [[0, "bogus-op"]]}) + "\n"
        )
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceFormatError) as exc:
            load_trace(path)
        assert exc.value.record_index == 0

    def test_missing_instruction_list(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            json.dumps({"kernel": "x", "version": 1}) + "\n"
            + json.dumps({"cta": 0}) + "\n"
            + json.dumps({"warp": 0}) + "\n"
        )
        with pytest.raises(TraceFormatError) as exc:
            load_trace(path)
        assert exc.value.record_index == 2

    def test_is_a_value_error(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)


def _one_record_trace(tmp_path, record):
    path = tmp_path / "one.trace"
    path.write_text(
        json.dumps({"kernel": "x", "version": 1}) + "\n"
        + json.dumps({"cta": 0}) + "\n"
        + json.dumps({"warp": 0, "instrs": [record]}) + "\n"
    )
    return path


class TestRecordShape:
    """A record the encoder would never write is rejected, so every file
    that loads round-trips: memory ops take exactly 6 fields, address-free
    ops exactly 2, and the divergent flag is 0 or 1."""

    def _reject(self, tmp_path, record, words):
        with pytest.raises(TraceFormatError) as exc:
            load_trace(_one_record_trace(tmp_path, record))
        assert exc.value.record_index == 2
        for word in words:
            assert word in str(exc.value.__cause__)

    def test_memory_op_without_operands_rejected(self, tmp_path):
        # used to load as a real access at address 0 with stride 0
        self._reject(tmp_path, [16, "load"], ["load", "6 fields"])

    def test_address_free_op_with_operands_rejected(self, tmp_path):
        # used to load, then save back as [16, "alu"]
        self._reject(tmp_path, [16, "alu", 4096, 4, 4, 0], ["alu", "2 fields"])

    def test_divergent_flag_outside_zero_one_rejected(self, tmp_path):
        # used to load as divergent=True
        self._reject(tmp_path, [16, "load", 4096, 4, 4, 7], ["divergent"])

    @pytest.mark.parametrize("flag", [0, 1])
    def test_divergent_flag_zero_one_loads(self, tmp_path, flag):
        kernel = load_trace(_one_record_trace(tmp_path, [16, "load", 4096, 4, 4, flag]))
        assert kernel.ctas[0].warps[0].instrs[0].divergent is bool(flag)


class TestSharedInstrs:
    def test_loaded_plain_instrs_are_shared_per_op_and_pc(self, tmp_path):
        path = save_trace(build_kernel("lps", scale=0.1, seed=1),
                          tmp_path / "lps.trace")
        first = plain_instrs_by_key(load_trace(path))
        again = plain_instrs_by_key(load_trace(path))
        assert first and again == first
        # one table per load_trace call: a second load shares nothing
        # with the first
        assert all(again[key] is not instr for key, instr in first.items())


class TestSimulationEquivalence:
    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.gpusim import simulate

        kernel = build_kernel("hotspot", scale=0.25, seed=2)
        loaded = load_trace(save_trace(kernel, tmp_path / "h.trace"))
        a = simulate(kernel, prefetcher="snake")
        b = simulate(loaded, prefetcher="snake")
        assert (a.cycles, a.instructions, a.prefetch.issued) == (
            b.cycles, b.instructions, b.prefetch.issued
        )
