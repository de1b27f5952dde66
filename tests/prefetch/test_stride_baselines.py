"""INTRA / INTER / MTA / CTA-aware / Tree / Ideal behaviour."""

from repro.prefetch.cta_aware import CTAAwarePrefetcher
from repro.prefetch.ideal import IdealPrefetcher
from repro.prefetch.inter_warp import InterWarpPrefetcher
from repro.prefetch.intra_warp import IntraWarpPrefetcher
from repro.prefetch.mta import MTAPrefetcher
from repro.prefetch.stride import ConsensusTracker, StrideTracker
from repro.prefetch.tree import CHUNK_BYTES, TreePrefetcher


class TestStrideTracker:
    def test_needs_two_equal_deltas(self):
        t = StrideTracker()
        assert t.update(0) is None
        assert t.update(100) is None  # first delta
        assert t.update(200) == 100  # confirmed

    def test_changed_stride_resets(self):
        t = StrideTracker()
        t.update(0), t.update(100), t.update(200)
        assert t.update(500) is None  # delta 300 breaks the run
        assert t.update(800) == 300

    def test_zero_delta_ignored(self):
        t = StrideTracker()
        t.update(0), t.update(0)
        assert t.update(0) is None


class TestConsensusTracker:
    def test_trains_at_threshold_distinct_voters(self):
        t = ConsensusTracker(threshold=3)
        assert t.vote(0, 128) is None
        assert t.vote(1, 128) is None
        assert t.vote(2, 128) == 128

    def test_same_voter_counted_once(self):
        t = ConsensusTracker(threshold=2)
        t.vote(0, 128)
        assert t.vote(0, 128) is None

    def test_zero_stride_never_trains(self):
        t = ConsensusTracker(threshold=1)
        assert t.vote(0, 0) is None


class TestIntraWarp:
    def test_prefetches_loop_iterations(self):
        pf = IntraWarpPrefetcher(degree=2)
        pf.observe(0, 0x10, 0)
        pf.observe(0, 0x10, 4096)
        requests = pf.observe(0, 0x10, 8192)
        assert [addr for addr, _ in requests] == [12288, 16384]

    def test_separate_warps_do_not_interfere(self):
        pf = IntraWarpPrefetcher()
        pf.observe(0, 0x10, 0)
        pf.observe(1, 0x10, 999_999)
        assert pf.observe(0, 0x10, 4096) == []  # no confirmed stride yet

    def test_irregular_never_trains(self):
        pf = IntraWarpPrefetcher()
        for addr in (0, 7773, 120, 91_231):
            requests = pf.observe(0, 0x10, addr)
        assert requests == []


class TestInterWarp:
    def test_trains_across_adjacent_warps(self):
        pf = InterWarpPrefetcher(degree=2, train_threshold=3)
        requests = []
        for warp in range(4):
            requests = pf.observe(warp, 0x10, warp * 4096)
        assert [addr for addr, _ in requests] == [4 * 4096, 5 * 4096]

    def test_warp_gaps_normalized(self):
        pf = InterWarpPrefetcher(train_threshold=2)
        pf.observe(0, 0x10, 0)
        pf.observe(2, 0x10, 8192)  # gap 2, per-warp stride 4096
        requests = pf.observe(3, 0x10, 12288)
        assert requests and requests[0][0] == 16384


class TestMTA:
    def test_combines_both_sources(self):
        pf = MTAPrefetcher(degree=1, train_threshold=2)
        # train intra (loop in warp 0) and inter (warps 0..2 fixed stride)
        for i in range(3):
            pf.observe(0, 0x10, i * 512)
        for warp in (1, 2, 3):
            pf.observe(warp, 0x10, 100_000 + warp * 4096)
        requests = pf.observe(0, 0x10, 3 * 512)
        assert len(requests) >= 1

    def test_deduplicates(self):
        pf = MTAPrefetcher()
        for warp in range(4):
            for i in range(3):
                requests = pf.observe(warp, 0x10, warp * 4096 + i * 4096)
        addrs = [addr for addr, _ in requests]
        assert len(addrs) == len(set(addrs))


class TestCTAAware:
    def test_trains_on_cta_base_stride(self):
        pf = CTAAwarePrefetcher(degree=1, train_threshold=2, cta_step=1)
        pf.observe(0, 0x10, 0, cta_id=0)
        pf.observe(8, 0x10, 1 << 20, cta_id=1)
        pf.observe(16, 0x10, 2 << 20, cta_id=2)
        requests = pf.observe(24, 0x10, 3 << 20, cta_id=3)
        assert requests and requests[0][0] == (4 << 20)

    def test_cta_step_scales_prediction(self):
        pf = CTAAwarePrefetcher(degree=1, train_threshold=2, cta_step=2)
        for cta in range(3):
            pf.observe(cta * 8, 0x10, cta << 20, cta_id=cta)
        requests = pf.observe(99, 0x10, 5 << 20, cta_id=10)
        assert requests[0][0] == (5 << 20) + (2 << 20)

    def test_needs_two_ctas(self):
        pf = CTAAwarePrefetcher(train_threshold=2)
        for warp in range(8):
            requests = pf.observe(warp, 0x10, warp * 128, cta_id=0)
        assert requests == []


class TestTree:
    def test_prefetches_following_lines_in_chunk(self):
        pf = TreePrefetcher(burst=4)
        requests = pf.observe(0, 0x10, 0)
        assert [addr for addr, _ in requests] == [128, 256, 384, 512]

    def test_cursor_advances_across_triggers(self):
        pf = TreePrefetcher(burst=2)
        pf.observe(0, 0x10, 0)
        requests = pf.observe(0, 0x10, 128)
        assert [addr for addr, _ in requests] == [384, 512]

    def test_stops_at_chunk_boundary(self):
        pf = TreePrefetcher(burst=8)
        requests = pf.observe(0, 0x10, CHUNK_BYTES - 128)
        assert requests == []


class TestIdeal:
    def test_uses_magic_path(self):
        assert IdealPrefetcher.uses_magic

    def test_covers_second_occurrence_of_any_transition(self):
        pf = IdealPrefetcher()
        # warp 0 walks a chain; warp 1 then repeats it
        pf.observe(0, 0x10, 1000)
        pf.observe(0, 0x20, 1400)
        requests = pf.observe(1, 0x10, 9000)
        assert any(addr == 9400 for addr, _ in requests)

    def test_no_history_no_prediction(self):
        pf = IdealPrefetcher()
        assert pf.observe(0, 0x10, 0) == []

    def test_supports_variable_strides(self):
        pf = IdealPrefetcher()
        pf.observe(0, 0x10, 0)
        pf.observe(0, 0x20, 400)     # stride +400
        pf.observe(0, 0x10, 10_000)
        pf.observe(0, 0x20, 9_600)   # stride -400 (different!)
        requests = pf.observe(1, 0x10, 50_000)
        addrs = {addr for addr, _ in requests}
        assert {50_400, 49_600} <= addrs
