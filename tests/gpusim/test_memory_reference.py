"""The memory side against its original bodies (``reference_memory``).

Two stacks are built from the same parameters, one from the production
classes and one from the reference subclasses, each with its own fault
injector on the same plan, and both are driven by one seeded random
stream.  After every call the return values, the ports' ``snapshot()``,
the tag stores, the MSHR files, the miss queues, every counter and the
fault RNG's state must agree: a fault draw taken earlier or later than
the original took it shifts the RNG and shows at once.

Addresses fold onto two L2 banks, two DRAM banks and two rows per bank,
so bank conflicts and row misses are the common case.
"""

import dataclasses
import random

import pytest

from repro.core.throttle import NullThrottle
from repro.gpusim.config import CacheConfig, DRAMTimings, GPUConfig
from repro.gpusim.dram import DRAM
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache
from repro.gpusim.stats import SimStats
from repro.gpusim.unified_cache import StorageMode, UnifiedL1Cache

from .reference_memory import (
    ReferenceDRAM,
    ReferenceInterconnect,
    ReferenceL1,
    ReferenceL2,
)

LINE = 128

#: Every memory-side fault site, at rates high enough that each fires
#: many times per stream, with short delays so the stream keeps moving.
PLAN = FaultPlan.make(
    {
        "icnt.delay_fill": 0.2,
        "icnt.drop_fill": 0.2,
        "l1.mshr_refuse": 0.2,
        "l2.latency_spike": 0.1,
        "dram.latency_spike": 0.1,
    },
    seed=7,
    delay_cycles=30,
)

#: (DRAM channels, banks per channel): one channel, and two, each with
#: two banks.
GEOMETRIES = ((1, 2), (2, 2))


def _advance(rng, now, *longer):
    return now + rng.choice((0, 0, 1, 2, 5, 13, 40, *longer))


def _injector(faulty):
    return FaultInjector(PLAN) if faulty else None


def _faults_state(injector):
    if injector is None:
        return None
    return injector.counts, injector._rng.getstate()


def _port_state(port):
    return port.snapshot(), list(port._recent), port._recent_bytes


def _dram_state(dram):
    return (
        dram.reads, dram.row_hits, dram.row_misses,
        [
            (ch.next_free, ch.priority_next_free,
             [dataclasses.astuple(bank) for bank in ch.banks])
            for ch in dram._channels
        ],
    )


def _store_state(store):
    if store is None:
        return None
    return (
        store.occupancy, store.prefetch_unused,
        [
            [
                (line.addr, line.inserted_at, line.last_use, line.is_prefetch,
                 line.used, line.transferred, line.predicted, line.sectors_valid)
                for line in cache_set.values()
            ]
            for cache_set in store._sets
        ],
    )


def _l2_state(l2):
    return (
        l2.hits, l2.misses, list(l2._bank_next_free),
        list(l2._bank_priority_next_free), dict(l2._inflight),
        list(l2._inflight_heap), _store_state(l2._store), _dram_state(l2.dram),
    )


def _l1_state(l1):
    mshr = l1._mshr
    return (
        l1.stats.to_json_dict(), list(l1._miss_queue),
        l1._prefetch_inserted, l1._prefetch_transferred,
        _store_state(l1.store), _store_state(l1.side_buffer),
        [dataclasses.astuple(e) for e in mshr.entries_inflight()],
        list(mshr._fill_heap), mshr.allocated, mshr.released,
        _port_state(l1._icnt_req), _port_state(l1._icnt_resp),
        _l2_state(l1._l2),
    )


# ---------------------------------------------------------------------------
# NoC port


@pytest.mark.parametrize("bytes_per_cycle", (32, 7))
@pytest.mark.parametrize("seed", (1, 2))
def test_interconnect_send_matches_reference(bytes_per_cycle, seed):
    new = Interconnect(bytes_per_cycle, 20, window=64)
    ref = ReferenceInterconnect(bytes_per_cycle, 20, window=64)
    rng = random.Random(seed)
    now = 0
    for _ in range(2000):
        now = _advance(rng, now)
        nbytes = rng.choice((1, 8, 31, 32, 33, 128, rng.randint(1, 300)))
        priority = rng.random() < 0.5
        assert new.send(now, nbytes, priority) == ref.send(now, nbytes, priority)
        assert _port_state(new) == _port_state(ref)
        assert new.measured_utilization(now) == ref.measured_utilization(now)


def test_interconnect_rejects_empty_transfer():
    with pytest.raises(ValueError):
        Interconnect(32, 20).send(0, 0)


# ---------------------------------------------------------------------------
# L2 and DRAM


def _l2_pair(channels, banks, faulty):
    config = CacheConfig(size_bytes=8 * LINE, assoc=2, line_bytes=LINE, latency=30)
    row_bytes = 2 * banks * LINE  # two rows per bank over the 8 lines below
    sides = []
    for l2_cls, dram_cls in ((L2Cache, DRAM), (ReferenceL2, ReferenceDRAM)):
        faults = _injector(faulty)
        dram = dram_cls(DRAMTimings(), channels, banks, row_bytes, 0.5, LINE,
                        faults=faults)
        sides.append((l2_cls(config, 2, dram, faults=faults), faults))
    return sides


@pytest.mark.parametrize("faulty", (False, True))
@pytest.mark.parametrize("channels, banks", GEOMETRIES)
@pytest.mark.parametrize("seed", (1, 2))
def test_l2_and_dram_match_reference(channels, banks, faulty, seed):
    (new, new_faults), (ref, ref_faults) = _l2_pair(channels, banks, faulty)
    rng = random.Random(seed)
    now = 0
    lines = 4 * channels * banks
    for _ in range(2000):
        now = _advance(rng, now)
        line_addr = rng.randrange(lines) * LINE
        is_write = rng.random() < 0.3
        priority = rng.random() < 0.6
        if rng.random() < 0.2:
            # straight to DRAM, as an L2 miss would go
            args = (line_addr, now, is_write, priority)
            assert new.dram.access(*args) == ref.dram.access(*args)
        else:
            assert new.access(line_addr, now, is_write, priority) == ref.access(
                line_addr, now, is_write=is_write, priority=priority
            )
        assert _l2_state(new) == _l2_state(ref)
        assert _faults_state(new_faults) == _faults_state(ref_faults)
    assert new.misses and new.hits
    assert new.dram.row_hits and new.dram.row_misses


# ---------------------------------------------------------------------------
# The L1 miss and fill path over the whole stack


def _l1_config(sector_bytes):
    return GPUConfig.scaled().with_(
        l1=CacheConfig(size_bytes=2048, assoc=4, line_bytes=LINE, latency=28),
        l2=CacheConfig(size_bytes=16 * LINE, assoc=2, line_bytes=LINE, latency=30),
        mshr_entries=4,
        mshr_merge=2,
        miss_queue_depth=3,
        l1_sector_bytes=sector_bytes,
    )


def build_stack(reference, config, mode, faulty):
    """One SM's L1 over its two NoC ports, a 2-bank L2 and a one-channel,
    2-bank DRAM whose rows each hold 24 lines (two rows per bank over the
    48 lines the stream touches)."""
    faults = _injector(faulty)
    icnt_cls = ReferenceInterconnect if reference else Interconnect
    dram_cls = ReferenceDRAM if reference else DRAM
    l2_cls = ReferenceL2 if reference else L2Cache
    l1_cls = ReferenceL1 if reference else UnifiedL1Cache
    dram = dram_cls(DRAMTimings(), 1, 2, 24 * LINE, 0.5, LINE, faults=faults)
    l2 = l2_cls(config.l2, 2, dram, faults=faults)
    l1 = l1_cls(
        config,
        icnt_cls(config.icnt_bytes_per_cycle, config.icnt_latency),
        icnt_cls(config.icnt_bytes_per_cycle, config.icnt_latency),
        l2, SimStats(), mode=mode, sm_id=0, faults=faults,
    )
    return l1, faults


def _sector_mask(rng, sector_bytes):
    if not sector_bytes or rng.random() < 0.2:
        return -1
    return rng.randrange(1, 1 << (LINE // sector_bytes))


def _step(rng, now, sector_bytes):
    """One random call: (method name, args)."""
    line_addr = rng.randrange(48) * LINE
    roll = rng.random()
    if roll < 0.5:
        return "demand_load", (line_addr, now, _sector_mask(rng, sector_bytes))
    if roll < 0.65:
        return "demand_store", (line_addr, now)
    if roll < 0.9:
        requests = [(rng.randrange(48) * LINE, d + 1) for d in range(rng.randint(1, 3))]
        return "prefetch", (requests, now, now + rng.randint(0, 5))
    if roll < 0.95:
        return "train", (rng.random() < 0.5, now + rng.choice((-1, 50)))
    return "poll", (now,)


def _call(l1, name, args):
    if name == "prefetch":
        requests, now, issue_at = args
        return l1.prefetch_trigger(
            requests, 0, 4, pc=0, now=now, issue_at=issue_at,
            throttle=NullThrottle(),
        )
    if name == "train":
        l1.prefetcher_trained, l1.throttled_until = args
        return None
    if name == "poll":
        return l1.free_space_fraction(*args), l1.unused_prefetch_fraction(*args)
    return getattr(l1, name)(*args)


@pytest.mark.parametrize("faulty", (False, True))
@pytest.mark.parametrize("sector_bytes", (0, 32))
@pytest.mark.parametrize("mode", list(StorageMode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", (1, 2))
def test_l1_stack_matches_reference(mode, sector_bytes, faulty, seed):
    config = _l1_config(sector_bytes)
    new, new_faults = build_stack(False, config, mode, faulty)
    ref, ref_faults = build_stack(True, config, mode, faulty)
    rng = random.Random(seed)
    # Start the transfer-ratio counters just below their halving point, so
    # the stream crosses it and the 80 % rule sees both verdicts.
    inserted = rng.randrange(200, 256)
    transferred = rng.randrange(inserted)
    for l1 in (new, ref):
        l1._prefetch_inserted, l1._prefetch_transferred = inserted, transferred
    now = 0
    for _ in range(1500):
        now = _advance(rng, now, 400)
        name, args = _step(rng, now, sector_bytes)
        assert _call(new, name, args) == _call(ref, name, args), name
        assert _l1_state(new) == _l1_state(ref), name
        assert _faults_state(new_faults) == _faults_state(ref_faults), name
    stats = new.stats
    # The stream reached every outcome and both kinds of fill.
    assert stats.l1_hits and stats.l1_misses and stats.l1_reserved
    assert stats.l1_reservation_fails and stats.prefetch.issued
    if faulty:
        assert set(new_faults.counts) == {site for site, _ in PLAN.rates}
