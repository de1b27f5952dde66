"""The decoupled L1's single-pass fill victim against the list reference.

``UnifiedL1Cache._decoupled_victim`` and the confined-demand recycle in
``_install`` walk a set once, in LRU order, keeping each side's LRU line
and a bounded demand-side count.  The reference below is the shape they
replaced: build the prefetch-side and demand-side lists of the whole set,
then pick from them (with the half-ways bound at least 1, so a
direct-mapped L1 has a bound at all).  Hypothesis varies set contents,
ages, the transfer counters, the trained/throttled flags and the
associativity, and the production choice must be the very same line.
"""

from typing import Optional

from hypothesis import example, given, settings, strategies as st

from repro.gpusim import GPUConfig, simulate
from repro.gpusim.cache import LineState
from repro.gpusim.config import CacheConfig, DRAMTimings
from repro.gpusim.dram import DRAM
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.l2 import L2Cache
from repro.gpusim.stats import SimStats
from repro.gpusim.unified_cache import StorageMode, UnifiedL1Cache
from repro.workloads import build_kernel


def reference_decoupled_victim(
    l1: UnifiedL1Cache, set_idx: int, now: int, inserting_prefetch: bool
) -> LineState:
    lines = l1.store.lines_in_set(set_idx)
    prefetch_side = [l for l in lines if l.is_prefetch]
    demand_side = [l for l in lines if not l.is_prefetch]
    if not inserting_prefetch:
        confined = (not l1.prefetcher_trained) or now < l1.throttled_until
        half = max(1, l1.config.l1.assoc // 2)
        if confined and len(demand_side) >= half:
            return demand_side[0]
    grace = l1.config.decouple_grace
    fresh = bool(prefetch_side) and now - prefetch_side[0].inserted_at < grace
    if l1._transfer_ratio() > 0.80 or fresh:
        victim_pool = demand_side or prefetch_side
    else:
        victim_pool = prefetch_side or demand_side
    return victim_pool[0]


def reference_confined_recycle(
    l1: UnifiedL1Cache, set_idx: int
) -> Optional[LineState]:
    """The demand-side line a confined demand fill into a set that is not
    full recycles, or None."""
    demand_side = [
        l for l in l1.store.lines_in_set(set_idx) if not l.is_prefetch
    ]
    if len(demand_side) >= max(1, l1.config.l1.assoc // 2):
        return demand_side[0]
    return None


def _l1(assoc: int, grace: int) -> UnifiedL1Cache:
    config = GPUConfig.scaled().with_(
        l1=CacheConfig(
            size_bytes=2 * assoc * 128, assoc=assoc, line_bytes=128, latency=28
        ),
        decouple_grace=grace,
    )
    dram = DRAM(DRAMTimings(), 2, 4, 2048, 0.5, 128)
    return UnifiedL1Cache(
        config,
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        Interconnect(config.icnt_bytes_per_cycle, config.icnt_latency),
        L2Cache(config.l2, banks=4, dram=dram), SimStats(),
        mode=StorageMode.DECOUPLED,
    )


def _same_set(l1: UnifiedL1Cache, count: int):
    target = l1.store.set_index(0)
    found, addr = [], 0
    while len(found) < count:
        if l1.store.set_index(addr) == target:
            found.append(addr)
        addr += 128
    return target, found


@st.composite
def cases(draw):
    assoc = draw(st.sampled_from([1, 2, 4, 64]))
    # Full sets take the victim path, the rest the confined recycle.
    count = assoc if draw(st.booleans()) else draw(st.integers(0, assoc - 1))
    lines = draw(st.lists(
        st.tuples(st.booleans(), st.booleans(), st.integers(0, 3000)),
        min_size=count, max_size=count,
    ))
    inserted = draw(st.integers(0, 400))
    transferred = draw(st.integers(0, inserted))
    return dict(
        assoc=assoc,
        lines=lines,
        grace=draw(st.sampled_from([0, 1, 500, 10_000])),
        now=draw(st.integers(0, 4000)),
        inserted=inserted,
        transferred=transferred,
        trained=draw(st.booleans()),
        throttled_until=draw(st.integers(-1, 4000)),
        inserting_prefetch=draw(st.booleans()),
    )


def _build(case):
    """An L1 whose target set holds ``case["lines"]`` in LRU order, plus
    the set index and a same-set address that is not resident."""
    l1 = _l1(case["assoc"], case["grace"])
    set_idx, addrs = _same_set(l1, len(case["lines"]) + 1)
    for addr, (is_prefetch, used, inserted_at) in zip(addrs, case["lines"]):
        l1.store.insert(addr, inserted_at, is_prefetch=is_prefetch)
        if used:
            l1.store.touch(addr, inserted_at)
    l1._prefetch_inserted = case["inserted"]
    l1._prefetch_transferred = case["transferred"]
    l1.prefetcher_trained = case["trained"]
    l1.throttled_until = case["throttled_until"]
    return l1, set_idx, addrs[-1]


@settings(max_examples=400, deadline=None)
@given(case=cases())
@example(case=dict(
    assoc=1, lines=[(True, False, 0)], grace=0, now=10, inserted=0,
    transferred=0, trained=False, throttled_until=-1,
    inserting_prefetch=False,
))
@example(case=dict(  # the half-ways count must run past the prefetch LRU
    assoc=4, lines=[(False, False, 0), (True, False, 0), (False, True, 0),
                    (True, False, 0)],
    grace=0, now=4000, inserted=100, transferred=0, trained=False,
    throttled_until=-1, inserting_prefetch=False,
))
def test_fill_matches_list_reference(case):
    l1, set_idx, new_addr = _build(case)
    now = case["now"]
    full = len(case["lines"]) == case["assoc"]
    before = [line.addr for line in l1.store.lines_in_set(set_idx)]
    if full:
        expected = reference_decoupled_victim(
            l1, set_idx, now, case["inserting_prefetch"]
        )
        assert l1._decoupled_victim(
            set_idx, now, case["inserting_prefetch"]
        ) is expected
        gone = {expected.addr}
    else:
        confined = not case["inserting_prefetch"] and (
            not case["trained"] or now < case["throttled_until"]
        )
        recycled = reference_confined_recycle(l1, set_idx) if confined else None
        gone = set() if recycled is None else {recycled.addr}
    l1._install(new_addr, now, case["inserting_prefetch"])
    after = [line.addr for line in l1.store.lines_in_set(set_idx)]
    assert after == [a for a in before if a not in gone] + [new_addr]


def test_direct_mapped_snake_l1_runs():
    """With one way the half-ways bound is 1, not 0: a full set holding a
    prefetched line no longer indexes an empty demand side."""
    config = GPUConfig.scaled().with_(
        l1=CacheConfig(size_bytes=4096, assoc=1, line_bytes=128, latency=28)
    )
    stats = simulate(
        build_kernel("lps", scale=0.1, seed=1), prefetcher="snake",
        config=config,
    ).verify()
    assert stats.prefetch.issued > 0
