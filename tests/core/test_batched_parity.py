"""Property tests pinning the hot path to its naive references.

The production lanes (Snake's training in ``SnakePrefetcher._detect``
and the Tail table's in-place ``record_intra``/``record_inter_warp``,
``TailTable.walk_raw`` under ``SnakePrefetcher._generate_raw``,
``observe_raw``, and the SM/L1 ``prefetch_trigger`` issue path) are
performance refactors of the naive references kept beside these tests
(``reference_snake.py``, ``tests/gpusim/reference_issue.py``), and these
tests are the pin — hypothesis-generated access streams, seeds and chain
shapes (including forced Tail evictions, mid-stream stride changes and
the fault injector's in-field corruption modes) must produce identical
predictions, learner snapshots (byte for byte, after every event) and
statistics on both paths.
"""

import json
from collections import Counter
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TrainState
from repro.gpusim import GPUConfig, simulate
from repro.gpusim.sm import SM
from repro.gpusim.trace import CTA, KernelTrace, Op, WarpInstr, WarpTrace, renumber_warps
from repro.prefetch.base import AccessEvent

from ..gpusim import reference_issue
from . import reference_snake
from .reference_snake import ReferenceSnake


def _stream(seed, length, pcs, warps, chain_shape):
    """A deterministic access-event stream.

    ``chain_shape`` picks the pc ordering: ``loop`` sweeps pcs cyclically
    per warp (stable chains), ``churn`` picks pcs at random (constant
    Tail eviction pressure on a small table), ``mixed`` alternates and
    sprinkles divergent accesses, and ``shift`` sweeps like ``loop`` but
    changes every PC's per-warp stride halfway through (warps disagree
    on the new stride, so intra-warp votes split between rivals).
    """
    rng = random.Random(seed)
    pc_list = [0x100 + 4 * i for i in range(pcs)]
    strides = {pc: 32 * (1 + i % 5) for i, pc in enumerate(pc_list)}
    cursors = {}
    events = []
    for k in range(length):
        warp = rng.randrange(warps)
        if chain_shape in ("loop", "shift") or (
            chain_shape == "mixed" and k % 2 == 0
        ):
            pc = pc_list[(k // warps) % len(pc_list)]
        else:
            pc = pc_list[rng.randrange(len(pc_list))]
        key = (warp, pc)
        addr = cursors.get(key, 0x4000 + warp * 0x1000 + pc * 8)
        stride = strides[pc]
        if chain_shape == "shift" and 2 * k >= length:
            stride += 32 * (1 + warp % 3)
        cursors[key] = addr + stride
        events.append(AccessEvent(
            warp_id=warp, cta_id=0, pc=pc, base_addr=addr, line_addr=addr,
            now=k,
            divergent=chain_shape == "mixed" and rng.random() < 0.1,
        ))
    return events


def _make_pair(tail_entries, depth):
    """(production, reference) learners with identical knobs."""
    kwargs = dict(
        head_entries=8, tail_entries=tail_entries, train_threshold=2,
        max_chain_depth=depth,
    )
    return SnakePrefetcher(**kwargs), ReferenceSnake(**kwargs)


def _state(learner):
    """The whole learner image, in its insertion orders: Head/Tail
    tables, ``_intra_last``, ``_iw_last`` and ``_iw_consensus``."""
    return json.dumps(learner.snapshot(), sort_keys=False)


STREAMS = st.tuples(
    st.integers(0, 2**31),                      # seed
    st.integers(32, 300),                        # length
    st.integers(2, 10),                          # distinct pcs
    st.integers(1, 12),                          # warps
    st.sampled_from(["loop", "churn", "mixed", "shift"]),
)


class TestLearnerParity:
    @settings(max_examples=40, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24),
           depth=st.integers(1, 12))
    def test_observe_matches_scalar_oracle(self, params, tail_entries, depth):
        """Production vs reference training and generation: identical
        predictions after every event, identical learner snapshots after
        every event, and identical lookup accounting — small Tail
        capacities force eviction interleavings, large ones keep long
        CAM buckets."""
        events = _stream(*params)
        production, reference = _make_pair(tail_entries, depth)
        for event in events:
            got = [(r.base_addr, r.depth) for r in production.observe(event)]
            want = [(r.base_addr, r.depth) for r in reference.observe(event)]
            assert got == want
            assert _state(production) == _state(reference)
        assert production.tail.lookups == reference.tail.lookups

    def test_shift_stream_reaches_rival_and_inter_warp_training(self):
        """The ``shift`` shape drives ``record_intra`` into its rival
        branch (an entry holding votes for two strides) and trains an
        inter-warp stride, with both learners in lockstep throughout."""
        production, reference = _make_pair(16, 8)
        rival = inter_warp = False
        for event in _stream(7, 400, 4, 8, "shift"):
            got = [(r.base_addr, r.depth) for r in production.observe(event)]
            want = [(r.base_addr, r.depth) for r in reference.observe(event)]
            assert got == want
            assert _state(production) == _state(reference)
            entries = production.tail.entries()
            rival |= any(len(e._intra_votes) >= 2 for e in entries)
            inter_warp |= any(
                e.inter_warp_stride is not None for e in entries
            )
        assert rival and inter_warp

    @settings(max_examples=25, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24))
    def test_observe_raw_matches_observe(self, params, tail_entries):
        """The raw (base_addr, depth) lane is the boxed lane, unboxed."""
        events = _stream(*params)
        raw, reference = _make_pair(tail_entries, 8)
        for event in events:
            pairs = raw.observe_raw(
                event.warp_id, event.pc, event.base_addr, event.app_id,
                event.divergent, event.now,
            )
            want = [(r.base_addr, r.depth) for r in reference.observe(event)]
            assert pairs == want
            assert _state(raw) == _state(reference)

    @settings(max_examples=20, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 20),
           fault_seed=st.integers(0, 2**31))
    def test_parity_survives_corruption_interleavings(self, params,
                                                      tail_entries,
                                                      fault_seed):
        """The fault injector's in-field Tail corruptions (stale stride,
        scrambled warp vector, spurious promotion), applied identically
        to both learners mid-stream, must not desynchronize the paths —
        the production walk reads the same corrupted state the reference
        CAM scan does."""
        events = _stream(*params)
        production, reference = _make_pair(tail_entries, 8)
        rng = random.Random(fault_seed)
        for event in events:
            if rng.random() < 0.08 and len(production.tail):
                index = rng.randrange(len(production.tail))
                mode = rng.randrange(3)
                scrambled = rng.getrandbits(64)
                for learner in (production, reference):
                    entry = learner.tail.entries()[index]
                    if mode == 0:
                        entry.inter_thread_stride *= 3
                    elif mode == 1:
                        entry.warp_vector = scrambled
                    else:
                        entry.t1 = TrainState.TRAINED
            got = [(r.base_addr, r.depth) for r in production.observe(event)]
            want = [(r.base_addr, r.depth) for r in reference.observe(event)]
            assert got == want
            assert _state(production) == _state(reference)

    @settings(max_examples=15, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24))
    def test_snapshot_roundtrip_preserves_batched_state(self, params,
                                                        tail_entries):
        """snapshot -> restore -> snapshot is byte-stable for the
        CAM-indexed tables, and a restored learner continues the stream
        exactly like the original (both lanes)."""
        events = _stream(*params)
        half = len(events) // 2
        for cls in (SnakePrefetcher, ReferenceSnake):
            learner = cls(
                head_entries=8, tail_entries=tail_entries,
                train_threshold=2,
            )
            for event in events[:half]:
                learner.observe(event)
            image = learner.snapshot()
            clone = cls.restore(image)
            assert clone.snapshot() == image
            for event in events[half:]:
                got = [(r.base_addr, r.depth) for r in clone.observe(event)]
                want = [(r.base_addr, r.depth)
                        for r in learner.observe(event)]
                assert got == want
            assert clone.snapshot() == learner.snapshot()


def _raw_stream(seed, length, pcs, warps, apps):
    """Raw ``(warp, pc, addr, app, divergent, now)`` records whose strides
    may be negative and whose addresses start near 0, so chain, intra-warp
    and inter-warp targets regularly fall below 0 and must be clipped."""
    rng = random.Random(seed)
    pc_list = [0x100 + 4 * i for i in range(pcs)]
    strides = {pc: rng.choice((-96, -64, -32, 32, 64, 160)) for pc in pc_list}
    cursors = {}
    records = []
    for k in range(length):
        warp = rng.randrange(warps)
        pc = pc_list[(k // max(1, warps)) % pcs] if k % 3 else rng.choice(pc_list)
        app = rng.randrange(apps)
        key = (app, warp, pc)
        addr = cursors.get(key, rng.randrange(0, 256))
        nxt = addr + strides[pc]
        cursors[key] = nxt if nxt >= 0 else rng.randrange(0, 256)
        records.append((warp, pc, addr, app, rng.random() < 0.08, k))
    return records


RAW_STREAMS = st.tuples(
    st.integers(0, 2**31),                      # seed
    st.integers(32, 300),                        # length
    st.integers(2, 8),                           # distinct pcs
    st.integers(1, 10),                          # warps
    st.integers(1, 3),                           # apps
)


class TestRawLaneParity:
    @settings(max_examples=40, deadline=None)
    @given(params=RAW_STREAMS, tail_entries=st.integers(2, 20),
           per_app=st.booleans(), fault_seed=st.integers(0, 2**31))
    def test_raw_lane_adapter_and_oracle_agree(self, params, tail_entries,
                                               per_app, fault_seed):
        """``observe_raw`` (the production lane), ``observe(event)`` (the
        boxing adapter) and the reference learner: identical pairs,
        ``lookups`` and snapshots — over divergent loads, per-app tables,
        near-0 addresses, small-Tail eviction churn and in-field fault
        corruption applied identically to all three."""
        kwargs = dict(head_entries=6, tail_entries=tail_entries,
                      train_threshold=2, max_chain_depth=6, per_app=per_app)
        raw = SnakePrefetcher(**kwargs)
        adapter = SnakePrefetcher(**kwargs)
        oracle = ReferenceSnake(**kwargs)
        learners = (raw, adapter, oracle)
        rng = random.Random(fault_seed)
        for warp, pc, addr, app, divergent, now in _raw_stream(*params):
            if rng.random() < 0.05:
                tables = [t for _, _, t in raw.tables() if len(t)]
                if tables:
                    which = rng.randrange(len(tables))
                    index = rng.randrange(len(tables[which]))
                    mode = rng.randrange(3)
                    scrambled = rng.getrandbits(64)
                    for learner in learners:
                        tail = [t for _, _, t in learner.tables() if len(t)][which]
                        entry = tail.entries()[index]
                        if mode == 0:
                            entry.inter_thread_stride *= -2
                        elif mode == 1:
                            entry.warp_vector = scrambled
                        else:
                            entry.t1 = TrainState.TRAINED
            event = AccessEvent(
                warp_id=warp, cta_id=0, pc=pc, base_addr=addr,
                line_addr=addr, now=now, divergent=divergent, app_id=app,
            )
            got = raw.observe_raw(warp, pc, addr, app, divergent, now)
            boxed = [(r.base_addr, r.depth) for r in adapter.observe(event)]
            want = [(r.base_addr, r.depth) for r in oracle.observe(event)]
            assert got == boxed == want
            assert all(target >= 0 for target, _ in got)
            assert _state(raw) == _state(adapter) == _state(oracle)
        lookups = [[t.lookups for _, _, t in l.tables()] for l in learners]
        assert lookups[0] == lookups[1] == lookups[2]


def _small_kernel(seed):
    """A compact two-CTA kernel mixing strided and chained loads."""
    rng = random.Random(seed)
    ctas = []
    for c in range(2):
        warps = []
        for w in range(rng.randrange(1, 4)):
            base = (c * 4 + w) * 8192 + (1 << 26)
            instrs = []
            for i in range(rng.randrange(2, 7)):
                instrs.append(WarpInstr(pc=0x10, op=Op.LOAD,
                                        base_addr=base + i * 512,
                                        thread_stride=4))
                instrs.append(WarpInstr(pc=0x20, op=Op.LOAD,
                                        base_addr=base + i * 512 + 4096,
                                        thread_stride=4))
                instrs.append(WarpInstr(pc=0x30, op=Op.ALU))
            warps.append(WarpTrace(warp_id=0, instrs=instrs))
        ctas.append(CTA(cta_id=c, warps=warps))
    renumber_warps(ctas)
    return KernelTrace(name="batched-parity", ctas=ctas)


class TestSimulatorReferenceParity:
    """The end-to-end pin: swapping in the naive Snake generation and L1
    issue references must leave every simulated statistic untouched."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31),
           mech=st.sampled_from(["snake", "s-snake", "intra"]))
    @example(seed=3, mech="snake")
    def test_references_do_not_move_stats(self, seed, mech):
        kernel = _small_kernel(seed)
        # Count production's triggers: the issue reference must see each.
        triggers: Counter = Counter()
        production = SM._issue_prefetches

        def counted(sm, *args):
            triggers["trigger"] += 1
            production(sm, *args)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(SM, "_issue_prefetches", counted)
            reference = simulate(kernel, prefetcher=mech, config=GPUConfig())
        # Intra-warp stride trains on every kernel _small_kernel builds.
        assert triggers["trigger"] > 0 or mech != "intra"
        for snake_ref, issue_ref in ((True, False), (False, True),
                                     (True, True)):
            with pytest.MonkeyPatch.context() as monkeypatch:
                snake_reached = (
                    reference_snake.install(monkeypatch) if snake_ref
                    else Counter()
                )
                issue_reached = (
                    reference_issue.install(monkeypatch) if issue_ref
                    else Counter()
                )
                stats = simulate(kernel, prefetcher=mech, config=GPUConfig())
            assert stats == reference, (
                "stats diverged with reference snake=%s issue=%s"
                % (snake_ref, issue_ref)
            )
            # Each installed reference must have been reached.
            if snake_ref and mech != "intra":
                assert snake_reached["detect"] > 0
                assert snake_reached["generate"] > 0
            if issue_ref:
                assert issue_reached["trigger"] == triggers["trigger"]
