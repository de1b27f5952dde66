"""Property tests pinning the hot path to its naive references.

The production paths (Snake's one training-and-generation pass in
``SnakePrefetcher.observe``, the Tail table's in-place
``record_intra``/``record_inter_warp`` with its counted votes and its
eviction, ``TailTable.walk_raw`` under ``SnakePrefetcher._generate_raw``,
and the SM/L1 ``prefetch_trigger`` issue path) are
performance refactors of the naive references kept beside these tests
(``reference_snake.py``, ``tests/gpusim/reference_issue.py``), and these
tests are the pin — hypothesis-generated access streams, seeds and chain
shapes (including forced Tail evictions, mid-stream stride changes,
data-dependent tree walks that fill one CAM bucket, the fault
injector's in-field corruption modes and every combination of Snake's
variant flags) must produce identical
predictions, learner snapshots (byte for byte, after every event) and
statistics on both paths.
"""

import json
from collections import Counter
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.snake import SnakePrefetcher
from repro.core.tail_table import TailEntry, TrainState
from repro.gpusim import GPUConfig, simulate
from repro.gpusim.sm import SM
from repro.gpusim.trace import CTA, KernelTrace, Op, WarpInstr, WarpTrace, renumber_warps
from repro.serve.state import peek_predictions

from ..gpusim import reference_issue
from . import reference_snake
from .reference_snake import ReferenceSnake


def _stream(seed, length, pcs, warps, chain_shape):
    """A deterministic stream of ``(warp, pc, addr, app, divergent, now)``
    access records.

    ``chain_shape`` picks the pc ordering: ``loop`` sweeps pcs cyclically
    per warp (stable chains), ``churn`` picks pcs at random (constant
    Tail eviction pressure on a small table), ``mixed`` alternates and
    sprinkles divergent accesses, ``shift`` sweeps like ``loop`` but
    changes every PC's per-warp stride halfway through (warps disagree
    on the new stride, so intra-warp votes split between rivals), and
    ``tree`` is a data-dependent tree walk (MUM's shape) over one PC
    pair: each warp hops to a random node at the first PC and reads a
    child at the second, at a stride that depends on the warp and the
    node, so the first PC's bucket holds dozens of entries, every entry
    collects votes for many intra-warp strides, and a small Tail evicts
    every few events.
    """
    rng = random.Random(seed)
    if chain_shape == "tree":
        return _tree_stream(rng, length, warps)
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
        events.append((
            warp, pc, addr, 0, chain_shape == "mixed" and rng.random() < 0.1, k,
        ))
    return events


def _tree_stream(rng, length, warps):
    """The ``tree`` shape of :func:`_stream` (``pcs`` is ignored)."""
    node_pc, child_pc = 0x100, 0x104
    at_node = {}
    events = []
    for k in range(length):
        warp = rng.randrange(warps)
        node = at_node.pop(warp, None)
        if node is None:
            node = rng.randrange(64)
            pc, addr = node_pc, 0x4000 + 256 * node
            at_node[warp] = node
        else:
            pc = child_pc
            addr = 0x4000 + 256 * node + 32 * (1 + node * (warp + 1) % 40)
        events.append((warp, pc, addr, 0, False, k))
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
    st.sampled_from(["loop", "churn", "mixed", "shift", "tree"]),
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
            assert production.observe(*event) == reference.observe(*event)
            assert _state(production) == _state(reference)
        assert production.tail.lookups == reference.tail.lookups

    def test_shift_stream_reaches_rival_and_inter_warp_training(self):
        """The ``shift`` shape drives ``record_intra`` into its rival
        branch (an entry holding votes for two strides) and trains an
        inter-warp stride, with both learners in lockstep throughout."""
        production, reference = _make_pair(16, 8)
        rival = inter_warp = False
        for event in _stream(7, 400, 4, 8, "shift"):
            assert production.observe(*event) == reference.observe(*event)
            assert _state(production) == _state(reference)
            entries = production.tail.entries()
            rival |= any(len(e._intra_votes) >= 2 for e in entries)
            inter_warp |= any(
                e.inter_warp_stride is not None for e in entries
            )
        assert rival and inter_warp

    @pytest.mark.parametrize("tail_entries", [4, 64])
    def test_tree_stream_fills_buckets_and_evicts(self, tail_entries):
        """The ``tree`` shape fills one bucket (with dozens of entries in a
        64-entry Tail), gives entries votes for many strides and evicts
        every few events, with both learners in lockstep."""
        production, reference = _make_pair(tail_entries, 16)
        events = _stream(5, 600, 2, 8, "tree")
        widest = most_strides = 0
        for event in events:
            assert production.observe(*event) == reference.observe(*event)
            assert _state(production) == _state(reference)
            widest = max(widest, len(production.tail._pc_index.get(0x100, ())))
            most_strides = max(
                [most_strides]
                + [len(e._intra_votes) for e in production.tail.entries()]
            )
        assert production.tail.evictions == reference.tail.evictions
        assert production.tail.evictions > len(events) // 4
        assert most_strides >= 12
        assert widest >= (24 if tail_entries == 64 else tail_entries)

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
            assert production.observe(*event) == reference.observe(*event)
            assert _state(production) == _state(reference)
            assert production.tail.trained == any(
                e.t1.prefetchable for e in production.tail.entries()
            )

    @settings(max_examples=15, deadline=None)
    @given(params=STREAMS, tail_entries=st.integers(2, 24))
    def test_snapshot_roundtrip_preserves_batched_state(self, params,
                                                        tail_entries):
        """snapshot -> restore -> snapshot is byte-stable for the
        CAM-indexed tables, and a restored learner continues the stream
        exactly like the original (both learners)."""
        events = _stream(*params)
        half = len(events) // 2
        for cls in (SnakePrefetcher, ReferenceSnake):
            learner = cls(
                head_entries=8, tail_entries=tail_entries,
                train_threshold=2,
            )
            for event in events[:half]:
                learner.observe(*event)
            image = learner.snapshot()
            clone = cls.restore(image)
            assert clone.snapshot() == image
            for event in events[half:]:
                assert clone.observe(*event) == learner.observe(*event)
            assert clone.snapshot() == learner.snapshot()


def _link(pc1, pc2, stride, warps=0b111, trained=True):
    """A Tail entry for a hand-built table: a trained (or untrained)
    ``pc1 -> pc2`` link confirmed by the warps set in ``warps``."""
    return TailEntry(
        pc1=pc1, pc2=pc2, inter_thread_stride=stride, warp_vector=warps,
        t1=TrainState.TRAINED if trained else TrainState.NOT_TRAINED,
    )


def _walk_both(links, pc, base_addr, warp_id=0, depth=8):
    """``walk_raw`` and the reference's one-``find``-per-hop walk on one
    table holding ``links`` in bucket order: asserts equal pairs and
    equal ``lookups`` ticks, and returns ``(pairs, ticks)``."""
    learner = SnakePrefetcher(
        tail_entries=max(1, len(links)), max_chain_depth=depth,
    )
    for entry in links:
        learner.tail._install(entry)
    before = learner.tail.lookups
    pairs = learner.tail.walk_raw(pc, base_addr, warp_id, depth)
    ticks = learner.tail.lookups - before
    before = learner.tail.lookups
    assert pairs == reference_snake.chain_requests(
        learner, warp_id, pc, base_addr
    )
    assert learner.tail.lookups - before == ticks
    return pairs, ticks


class TestWalkParity:
    """Hand-built tables that put ``TailTable.walk_raw`` on each of its
    edges — fused first-bucket pass, origin-PC loop check, single-entry
    buckets, the flattened tie-break key — against the reference walk,
    with the expected pairs and ``lookups`` ticks spelled out."""

    def test_links_sharing_a_pc_pair_with_different_strides(self):
        links = [
            _link(0x10, 0x20, 100, warps=0b011),
            _link(0x10, 0x20, 200, warps=0b111),
            _link(0x20, 0x30, 50),
        ]
        assert _walk_both(links, 0x10, 1000) == (
            [(1100, 1), (1200, 1), (1200, 1), (1250, 2)], 4,
        )

    def test_chain_looping_back_to_its_trigger(self):
        links = [_link(0x10, 0x20, 8), _link(0x20, 0x30, 8),
                 _link(0x30, 0x10, 8)]
        assert _walk_both(links, 0x10, 0) == (
            [(8, 1), (8, 1), (16, 2), (24, 3)], 5,
        )

    def test_chain_looping_to_a_mid_chain_pc(self):
        links = [_link(0x10, 0x20, 8), _link(0x20, 0x30, 8),
                 _link(0x30, 0x20, 8)]
        assert _walk_both(links, 0x10, 0) == (
            [(8, 1), (8, 1), (16, 2), (24, 3)], 5,
        )

    def test_self_link(self):
        assert _walk_both([_link(0x10, 0x10, 64)], 0x10, 0) == (
            [(64, 1), (64, 1)], 3,
        )

    def test_depth_limit_of_one(self):
        links = [_link(0x10, 0x20, 8), _link(0x20, 0x30, 8)]
        assert _walk_both(links, 0x10, 0, depth=1) == ([(8, 1), (8, 1)], 2)

    @pytest.mark.parametrize("depth,ticks", [(16, 17), (20, 21), (24, 22)])
    def test_maximum_depth(self, depth, ticks):
        """A 20-link chain walked under a depth cap of 16 (stops at the
        cap), 20 (the cap is the chain's end) and 24 (stops at the
        chain's end after one more, empty, hop attempt)."""
        links = [_link(0x10 + 4 * i, 0x14 + 4 * i, 8) for i in range(20)]
        hops = [(8 * d, d) for d in range(1, min(depth, 20) + 1)]
        assert _walk_both(links, 0x10, 0, depth=depth) == (
            [(8, 1)] + hops, ticks,
        )

    def test_negative_fan_out_target(self):
        """The below-0 fan-out target is dropped; the same link is the
        best one, so the walk stops at its first hop."""
        links = [_link(0x10, 0x20, -200, warps=0b111),
                 _link(0x10, 0x30, 50, warps=0b110)]
        assert _walk_both(links, 0x10, 100) == ([(150, 1)], 2)

    def test_negative_cumulative_address_mid_chain(self):
        links = [_link(0x10, 0x20, 100), _link(0x20, 0x30, -500),
                 _link(0x30, 0x40, 1000)]
        assert _walk_both(links, 0x10, 300) == ([(400, 1), (400, 1)], 3)

    @pytest.mark.parametrize("hop", [1, 2])
    def test_tie_keeps_the_first_entry_of_the_bucket(self, hop):
        """Two links with the same (warp bit, popcount) key out of the
        trigger PC (``hop`` 1) or a mid-chain PC (``hop`` 2): the first
        one in the bucket wins, and the walk follows it."""
        origin = 0x10 if hop == 1 else 0x20
        links = [
            _link(0x10, 0x20, 8, warps=0b0110) if hop == 2 else None,
            _link(origin, 0x40, 16, warps=0b0110),
            _link(origin, 0x50, 32, warps=0b1010),
            _link(0x40, 0x60, 1),
            _link(0x50, 0x60, 2),
        ]
        pairs, _ = _walk_both([e for e in links if e], 0x10, 0)
        first = 16 if hop == 1 else 8 + 16
        assert pairs[-1] == (first + 1, hop + 1)

    def test_warp_bit_outranks_popcount(self):
        links = [_link(0x10, 0x20, 8, warps=0b1110),
                 _link(0x10, 0x30, 16, warps=(1 << 63) | 1)]
        assert _walk_both(links, 0x10, 0, warp_id=64)[0] == [
            (8, 1), (16, 1), (16, 1),
        ]
        assert _walk_both(links, 0x10, 0, warp_id=5)[0] == [
            (8, 1), (16, 1), (8, 1),
        ]

    def test_bucket_mixing_trained_and_untrained_links(self):
        """Untrained links neither fan out nor win a hop, whatever their
        popcount, in the trigger bucket and in a mid-chain one; a lone
        untrained link ends the walk."""
        links = [
            _link(0x10, 0x40, 1000, warps=(1 << 64) - 1, trained=False),
            _link(0x10, 0x20, 8, warps=0b1),
            _link(0x10, 0x30, 16, warps=0b1),
            _link(0x20, 0x50, 2000, warps=(1 << 64) - 1, trained=False),
            _link(0x20, 0x30, 4),
            _link(0x30, 0x60, 3000, trained=False),
        ]
        assert _walk_both(links, 0x10, 0) == (
            [(8, 1), (16, 1), (8, 1), (12, 2)], 4,
        )

    def test_untrained_trigger_bucket_walks_nothing(self):
        links = [_link(0x10, 0x20, 8, trained=False), _link(0x20, 0x30, 8)]
        assert _walk_both(links, 0x10, 0) == ([], 2)
        assert _walk_both(links, 0x99, 0) == ([], 2)


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


class TestRawStreamParity:
    @settings(max_examples=40, deadline=None)
    @given(params=RAW_STREAMS, tail_entries=st.integers(2, 20),
           per_app=st.booleans(), fault_seed=st.integers(0, 2**31))
    def test_production_and_oracle_agree(self, params, tail_entries,
                                         per_app, fault_seed):
        """Production ``observe`` and the reference learner: identical
        pairs, ``lookups`` and snapshots — over divergent loads, per-app
        tables, near-0 addresses, small-Tail eviction churn and in-field
        fault corruption applied identically to both."""
        kwargs = dict(head_entries=6, tail_entries=tail_entries,
                      train_threshold=2, max_chain_depth=6, per_app=per_app)
        raw = SnakePrefetcher(**kwargs)
        oracle = ReferenceSnake(**kwargs)
        learners = (raw, oracle)
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
            got = raw.observe(warp, pc, addr, app, divergent, now)
            want = oracle.observe(warp, pc, addr, app, divergent, now)
            assert got == want
            assert all(target >= 0 for target, _ in got)
            assert _state(raw) == _state(oracle)
        lookups = [[t.lookups for _, _, t in l.tables()] for l in learners]
        assert lookups[0] == lookups[1]


def _two_app_records(events):
    """:func:`_stream` records with the warps split over two apps by
    parity; app 1's warps sit twice as far apart, so its ``(app, pc)``
    consensus trackers train a different inter-warp stride from app 0's."""
    return [
        (w, pc, addr + (w * 0x1000 if w % 2 else 0), w % 2, divergent, now)
        for w, pc, addr, _, divergent, now in events
    ]


#: Raw records from either stream family: :func:`_raw_stream` (several
#: apps, negative strides, targets clipped at 0) or :func:`_stream`'s
#: shapes (the ``shift`` shape trains inter-warp strides).
ANY_RECORDS = st.one_of(
    RAW_STREAMS.map(lambda params: _raw_stream(*params)),
    STREAMS.map(lambda params: _stream(*params)),
)

FLAG_NAMES = ("use_chains", "use_intra", "use_inter_warp", "per_app")


class TestVariantFlagParity:
    """Snake's variant flags each skip part of the one training and
    generation pass (``use_inter_warp=False`` leaves generation with no
    consensus tracker; ``s-snake`` keeps only the chains).  Production
    and the reference must stay in lockstep under every combination,
    through ``observe`` and through the serve ``predict`` read."""

    @staticmethod
    def _lockstep(flags, records, tail_entries, depth, depth_limit):
        kwargs = dict(head_entries=6, tail_entries=tail_entries,
                      train_threshold=2, max_chain_depth=depth, **flags)
        production, reference = SnakePrefetcher(**kwargs), ReferenceSnake(**kwargs)
        for learner in (production, reference):
            learner.set_depth_limit(depth_limit)
        chained = False
        for warp, pc, addr, app, divergent, now in records:
            got = production.observe(warp, pc, addr, app, divergent, now)
            want = reference.observe(warp, pc, addr, app, divergent, now)
            assert got == want
            assert _state(production) == _state(reference)
            assert peek_predictions(production, warp, pc, addr, app) == \
                reference_snake.peek(reference, warp, pc, addr, app)
            assert _state(production) == _state(reference)
            chained |= production.trained
        return production, chained

    @settings(max_examples=40, deadline=None)
    @given(records=ANY_RECORDS, tail_entries=st.integers(2, 20),
           depth=st.integers(1, 10), depth_limit=st.integers(0, 12),
           flags=st.fixed_dictionaries(
               {name: st.booleans() for name in FLAG_NAMES}))
    @example(records=_stream(7, 200, 4, 8, "shift"),
             tail_entries=16, depth=8, depth_limit=2,
             flags=dict(use_chains=True, use_intra=False,
                        use_inter_warp=False, per_app=False))
    def test_flags_match_reference(self, records, tail_entries, depth,
                                   depth_limit, flags):
        self._lockstep(flags, records, tail_entries, depth, depth_limit)

    @pytest.mark.parametrize("bits", range(16))
    def test_every_flag_combination_on_a_training_stream(self, bits):
        """Each of the 16 combinations on the ``shift`` stream over two
        apps, which trains chain links, intra-warp strides and a
        different inter-warp stride per app.  Each stride detector runs
        exactly when its flag is set, and the throttle's depth limit (2)
        cuts chain walks below the learner's own maximum (8)."""
        flags = {name: bool(bits >> i & 1) for i, name in enumerate(FLAG_NAMES)}
        learner, chained = self._lockstep(
            flags, _two_app_records(_stream(7, 400, 4, 8, "shift")), 16, 8, 2,
        )
        assert chained  # chain links train under every flag set
        assert bool(learner._intra_last) == flags["use_intra"]
        strides = {
            app: {t.trained_stride for (a, _), t in learner._iw_consensus.items()
                  if a == app} - {None}
            for app in (0, 1)
        }
        if flags["use_inter_warp"]:
            assert strides[0] and strides[1] and strides[0] != strides[1]
        else:
            assert strides == {0: set(), 1: set()}


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
    @example(seed=36, mech="intra")
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
        # Intra-warp stride confirms on a warp's third load at a PC, so
        # it triggers exactly when some warp runs three iterations (three
        # instructions each; a kernel whose warps all run two, like
        # seed 36's, has none).
        if mech == "intra":
            assert (triggers["trigger"] > 0) == any(
                len(warp.instrs) >= 9
                for cta in kernel.ctas for warp in cta.warps
            )
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
