"""Fuzzing the external-trace JSONL loader (`gpusim/traceio.py`).

The loader is the one parser in the repo that eats bytes produced by
*other people's tools* (Accel-Sim converters, hand-written scripts), so
the contract is strict: any malformed input — truncated lines, NaN or
out-of-range numerics, garbage bytes, wrong-typed fields — must raise
:class:`TraceFormatError` carrying the byte offset and record index of
the damage, never a bare ``JSONDecodeError`` / ``TypeError`` /
``IndexError`` from the decoding internals.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import KernelTrace, load_trace, save_trace
from repro.gpusim.trace import CTA, Op, WarpInstr, WarpTrace
from repro.gpusim.traceio import TraceFormatError


def small_kernel():
    warps = [
        WarpTrace(warp_id=w, instrs=[
            WarpInstr(pc=0x10, op=Op.LOAD, base_addr=4096 * w, thread_stride=4),
            WarpInstr(pc=0x18, op=Op.ALU),
            WarpInstr(pc=0x20, op=Op.LOAD, base_addr=4096 * w + 256,
                      thread_stride=4),
        ])
        for w in range(4)
    ]
    return KernelTrace(name="fuzz", ctas=[CTA(cta_id=0, warps=warps)])


@pytest.fixture
def trace_path(tmp_path):
    return save_trace(small_kernel(), tmp_path / "fuzz.trace")


def expect_format_error(path):
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace(path)
    error = excinfo.value
    assert error.offset >= 0
    assert error.record_index >= 0
    assert str(path) in str(error)
    return error


class TestTruncation:
    def test_every_truncation_point_is_diagnosed_or_loads(self, trace_path):
        """Cutting the file at any byte either still parses (clean line
        boundary) or raises TraceFormatError — never anything else."""
        raw = trace_path.read_bytes()
        rng = random.Random(20260808)
        cuts = sorted(rng.sample(range(1, len(raw)), min(60, len(raw) - 1)))
        for cut in cuts:
            trace_path.write_bytes(raw[:cut])
            try:
                load_trace(trace_path)
            except TraceFormatError as error:
                assert error.record_index >= 0
            # any other exception type propagates and fails the test

    def test_truncated_mid_record_reports_index(self, trace_path):
        raw = trace_path.read_bytes()
        lines = raw.split(b"\n")
        # cut into the middle of the second record
        broken = lines[0] + b"\n" + lines[1][: len(lines[1]) // 2]
        trace_path.write_bytes(broken)
        error = expect_format_error(trace_path)
        assert error.record_index == 1
        assert error.offset == len(lines[0]) + 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        expect_format_error(path)


class TestNumericPoison:
    def _warp_line(self, instr_fields):
        return json.dumps({"warp": 0, "instrs": [instr_fields]}).encode()

    def _write(self, tmp_path, warp_line):
        path = tmp_path / "poison.trace"
        path.write_bytes(
            b'{"kernel": "p", "version": 1}\n{"cta": 0}\n' + warp_line + b"\n"
        )
        return path

    #: (record, the field it poisons)
    POISONED = [
        ([float("nan"), "load", 4096, 4, 4, 0], "pc"),         # NaN pc
        ([16, "load", float("inf"), 4, 4, 0], "base_addr"),    # Infinity address
        ([16, "load", -4096, 4, 4, 0], "base_addr"),           # negative address
        ([16, "load", 1 << 80, 4, 4, 0], "base_addr"),         # address beyond 2^64
        ([16, "load", 4096.5, 4, 4, 0], "base_addr"),          # float address
        ([16, "load", 4096, 4, 0, 0], "size_bytes"),           # zero-byte access
        ([16, "load", 4096, 4, -4, 0], "size_bytes"),          # negative size
        ([True, "load", 4096, 4, 4, 0], "pc"),                 # boolean pc
        ([16, True, 4096, 4, 4, 0], "opcode"),                 # boolean opcode
        (["16", "load", 4096, 4, 4, 0], "pc"),                 # string pc
        ([16, "load", "4096", 4, 4, 0], "base_addr"),          # string address
        ([16, 99, 4096, 4, 4, 0], "opcode"),                   # unknown opcode
        ([16, "load", 4096, 4, 4, "yes"], "divergent"),        # non-numeric divergent flag
        ([16, "load", 4096], "fields"),                        # wrong field count
        ("not-a-list", "fields"),                              # instr is not a list
    ]

    @pytest.mark.parametrize(
        "bad_instr, field", POISONED,
        ids=[r if isinstance(r, str) else "bad_instr%d" % i
             for i, (r, _) in enumerate(POISONED)],
    )
    def test_poisoned_instruction_rejected(self, tmp_path, bad_instr, field):
        """Each case poisons one field of an otherwise valid load record,
        so the decoder's message must name that field."""
        path = self._write(tmp_path, self._warp_line(bad_instr))
        error = expect_format_error(path)
        assert error.record_index == 2
        assert re.search(r"\b%s\b" % field, str(error.__cause__)), error

    def test_nan_literal_in_raw_bytes(self, tmp_path):
        # Python's json emits/accepts bare NaN; the loader must not.
        path = self._write(
            tmp_path, b'{"warp": 0, "instrs": [[NaN, "load", 4096, 4, 4, 0]]}'
        )
        expect_format_error(path)

    def test_float_warp_id_rejected(self, tmp_path):
        path = self._write(tmp_path, b'{"warp": 0.5, "instrs": []}')
        expect_format_error(path)

    def test_negative_cta_id_rejected(self, tmp_path):
        path = tmp_path / "cta.trace"
        path.write_bytes(b'{"kernel": "p", "version": 1}\n{"cta": -1}\n')
        error = expect_format_error(path)
        assert error.record_index == 1

    def test_non_string_kernel_name_rejected(self, tmp_path):
        path = tmp_path / "name.trace"
        path.write_bytes(b'{"kernel": 7, "version": 1}\n')
        expect_format_error(path)


class TestGarbage:
    @settings(max_examples=60, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=200))
    def test_arbitrary_bytes_never_escape_the_taxonomy(self, tmp_path_factory,
                                                       garbage):
        """Any byte blob either parses as a valid trace (vanishingly
        unlikely) or raises TraceFormatError — nothing else."""
        path = tmp_path_factory.mktemp("garbage") / "g.trace"
        path.write_bytes(garbage)
        try:
            load_trace(path)
        except TraceFormatError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=64),
           position=st.integers(0, 5))
    def test_garbage_spliced_into_valid_trace(self, tmp_path_factory, garbage,
                                              position):
        path = tmp_path_factory.mktemp("splice") / "s.trace"
        lines = save_trace(
            small_kernel(), path
        ).read_bytes().split(b"\n")
        index = min(position, len(lines) - 1)
        lines.insert(index, garbage.replace(b"\n", b"?"))
        path.write_bytes(b"\n".join(lines))
        try:
            load_trace(path)
        except TraceFormatError:
            pass

    def test_round_trip_still_works(self, trace_path):
        kernel = load_trace(trace_path)
        assert kernel.name == "fuzz"
        assert sum(len(c.warps) for c in kernel.ctas) == 4
