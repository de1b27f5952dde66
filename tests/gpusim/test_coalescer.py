"""Memory-access coalescer."""

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.coalescer import (
    coalesce,
    coalesce_lines,
    coalesce_sectors,
    line_of,
)
from repro.gpusim.trace import Op, WarpInstr


def load(addr, stride, size=4):
    return WarpInstr(pc=0, op=Op.LOAD, base_addr=addr, thread_stride=stride, size_bytes=size)


class TestLineOf:
    def test_alignment(self):
        assert line_of(0, 128) == 0
        assert line_of(127, 128) == 0
        assert line_of(128, 128) == 128
        assert line_of(300, 128) == 256


class TestCoalesce:
    def test_broadcast_is_one_line(self):
        assert coalesce(load(512, 0), warp_size=32, line_bytes=128) == [512]

    def test_unit_stride_words_fill_one_line(self):
        # 32 threads x 4 bytes = 128 bytes = exactly one line
        assert coalesce(load(0, 4), warp_size=32, line_bytes=128) == [0]

    def test_unit_stride_unaligned_spans_two_lines(self):
        lines = coalesce(load(64, 4), warp_size=32, line_bytes=128)
        assert lines == [0, 128]

    def test_line_stride_touches_every_line(self):
        lines = coalesce(load(0, 128), warp_size=32, line_bytes=128)
        assert len(lines) == 32
        assert lines[0] == 0 and lines[-1] == 31 * 128

    def test_wide_access_spans_lines(self):
        lines = coalesce(load(0, 0, size=256), warp_size=32, line_bytes=128)
        assert lines == [0, 128]

    def test_rejects_non_memory(self):
        with pytest.raises(ValueError):
            coalesce(WarpInstr(pc=0, op=Op.ALU), 32, 128)

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            coalesce(load(0, 4), 32, 0)

    def test_num_transactions(self):
        assert len(coalesce(load(0, 4), 32, 128)) == 1
        assert len(coalesce(load(0, 128), 32, 128)) == 32


class TestCoalesceProperties:
    @given(
        addr=st.integers(min_value=0, max_value=1 << 30),
        stride=st.integers(min_value=0, max_value=512),
        size=st.integers(min_value=1, max_value=256),
    )
    def test_lines_unique_aligned_and_cover_footprint(self, addr, stride, size):
        lines = coalesce(load(addr, stride, size=size), 32, 128)
        assert len(lines) == len(set(lines))
        assert all(l % 128 == 0 for l in lines)
        # every thread's first and last byte must be covered
        covered = set(lines)
        for t in range(32):
            start = addr + t * stride
            assert line_of(start, 128) in covered
            assert line_of(start + size - 1, 128) in covered

    @given(stride=st.integers(min_value=0, max_value=1024))
    def test_at_most_two_lines_per_thread_for_small_accesses(self, stride):
        # a 4-byte access can straddle a line boundary, so up to 2 per thread
        lines = coalesce(load(0, stride), 32, 128)
        assert 1 <= len(lines) <= 64


def reference_lines(base, stride, size, warp_size, line_bytes):
    """The pre-memoization implementation, verbatim semantics: first-seen
    scan over threads, plus the closed-form broadcast case.  The memoized
    fast paths must reproduce this list *including emission order* —
    downstream MSHR allocation and eviction decisions depend on it."""
    if stride == 0:
        first = line_of(base, line_bytes)
        last = line_of(base + size - 1, line_bytes)
        return list(range(first, last + 1, line_bytes))
    out, seen = [], set()
    for t in range(warp_size):
        start = base + t * stride
        for offset in range(0, size, line_bytes):
            line = line_of(start + offset, line_bytes)
            if line not in seen:
                seen.add(line)
                out.append(line)
        end_line = line_of(start + size - 1, line_bytes)
        if end_line not in seen:
            seen.add(end_line)
            out.append(end_line)
    return out


class TestMemoizedAgainstReference:
    """The vectorized/memoized hot paths (docs/PERFORMANCE.md) against
    the naive reference across random shapes — order-sensitive equality."""

    @given(
        base=st.integers(min_value=0, max_value=1 << 30),
        stride=st.integers(min_value=0, max_value=600),
        size=st.integers(min_value=1, max_value=512),
        line_bytes=st.sampled_from([32, 64, 128]),
    )
    def test_positive_strides_match_reference(self, base, stride, size, line_bytes):
        got = coalesce_lines(base, stride, size, 32, line_bytes)
        assert got == reference_lines(base, stride, size, 32, line_bytes)

    @given(
        stride=st.integers(min_value=-256, max_value=-1),
        size=st.integers(min_value=1, max_value=256),
        offset=st.integers(min_value=0, max_value=127),
    )
    def test_negative_strides_match_reference(self, stride, size, offset):
        # base large enough that no thread address goes negative
        base = (1 << 20) + offset
        got = coalesce_lines(base, stride, size, 32, 128)
        assert got == reference_lines(base, stride, size, 32, 128)

    @given(
        base=st.integers(min_value=0, max_value=1 << 24),
        stride=st.integers(min_value=0, max_value=300),
        size=st.integers(min_value=1, max_value=256),
    )
    def test_memo_is_translation_invariant(self, base, stride, size):
        """Shifting the base by whole lines shifts every transaction by
        the same amount — the property the memo key relies on."""
        shifted = coalesce_lines(base + 7 * 128, stride, size, 32, 128)
        assert shifted == [
            line + 7 * 128 for line in coalesce_lines(base, stride, size, 32, 128)
        ]

    @given(
        base=st.integers(min_value=0, max_value=1 << 24),
        stride=st.integers(min_value=0, max_value=300),
        size=st.integers(min_value=1, max_value=64),
        sector_bytes=st.sampled_from([32, 64]),
    )
    def test_sector_masks_cover_lines(self, base, stride, size, sector_bytes):
        instr = load(base, stride, size=size)
        masks = coalesce_sectors(instr, 32, 128, sector_bytes)
        lines = coalesce(instr, 32, 128)
        # same line set, insertion order preserved, every mask non-empty
        assert list(masks) == lines
        sectors_per_line = 128 // sector_bytes
        for mask in masks.values():
            assert 0 < mask < (1 << sectors_per_line)
