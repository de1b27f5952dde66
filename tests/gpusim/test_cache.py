"""SetAssocCache tag store."""

from hypothesis import given, settings, strategies as st

from repro.gpusim.cache import SetAssocCache
from repro.gpusim.config import CacheConfig


def make_cache(size=4096, assoc=4, line=128):
    return SetAssocCache(CacheConfig(size_bytes=size, assoc=assoc, line_bytes=line, latency=1))


def lines_in_same_set(cache, count):
    """Generate ``count`` distinct line addresses mapping to one set."""
    target = cache.set_index(0)
    found = []
    addr = 0
    while len(found) < count:
        if cache.set_index(addr) == target:
            found.append(addr)
        addr += cache.config.line_bytes
    return found


class TestBasics:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.touch(0, now=0) is None
        cache.insert(0, now=0)
        assert cache.touch(0, now=1) is not None

    def test_touch_marks_used_and_updates_time(self):
        cache = make_cache()
        cache.insert(0, now=0)
        state = cache.touch(0, now=5)
        assert state.used and state.last_use == 5

    def test_lookup_does_not_change_lru(self):
        cache = make_cache()
        a, b = lines_in_same_set(cache, 2)
        cache.insert(a, now=0)
        cache.insert(b, now=1)
        cache.lookup(a)  # must NOT promote a
        assert cache.lines_in_set(cache.set_index(a))[0].addr == a  # LRU

    def test_insert_refill_keeps_line(self):
        cache = make_cache()
        cache.insert(0, now=0)
        assert cache.insert(0, now=5) is None
        assert cache.occupancy == 1


class TestLRU:
    def test_lru_eviction_order(self):
        cache = make_cache()
        addrs = lines_in_same_set(cache, 5)
        for i, addr in enumerate(addrs[:4]):
            cache.insert(addr, now=i)
        evicted = cache.insert(addrs[4], now=10)
        assert evicted.addr == addrs[0]

    def test_touch_protects_from_eviction(self):
        cache = make_cache()
        addrs = lines_in_same_set(cache, 5)
        for i, addr in enumerate(addrs[:4]):
            cache.insert(addr, now=i)
        cache.touch(addrs[0], now=9)  # promote oldest to MRU
        evicted = cache.insert(addrs[4], now=10)
        assert evicted.addr == addrs[1]

    def test_explicit_victim(self):
        cache = make_cache()
        addrs = lines_in_same_set(cache, 5)
        for i, addr in enumerate(addrs[:4]):
            cache.insert(addr, now=i)
        victim = cache.lines_in_set(cache.set_index(addrs[0]))[2]
        evicted = cache.insert(addrs[4], now=10, victim=victim)
        assert evicted.addr == victim.addr


class TestHashing:
    def test_power_of_two_strides_spread_over_sets(self):
        """The XOR fold must avoid the pathological single-set mapping for
        large power-of-two strides."""
        cache = make_cache(size=32 * 1024, assoc=8, line=128)  # 32 sets
        sets = {cache.set_index(i * 4096) for i in range(64)}
        assert len(sets) > 8

    def test_index_stable(self):
        cache = make_cache()
        assert cache.set_index(12345 * 128) == cache.set_index(12345 * 128)


class TestProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, line_numbers):
        cache = make_cache(size=2048, assoc=2, line=128)  # 16 lines
        for i, n in enumerate(line_numbers):
            cache.insert(n * 128, now=i)
        assert cache.occupancy <= cache.config.num_lines
        for s in range(cache.num_sets):
            assert len(cache.lines_in_set(s)) <= cache.config.assoc

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    def test_most_recent_insert_is_resident(self, line_numbers):
        cache = make_cache(size=2048, assoc=2, line=128)
        for i, n in enumerate(line_numbers):
            cache.insert(n * 128, now=i)
        assert cache.lookup(line_numbers[-1] * 128) is not None

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=2, max_size=80))
    def test_evict_removes(self, line_numbers):
        cache = make_cache()
        for i, n in enumerate(line_numbers):
            cache.insert(n * 128, now=i)
        cache.evict(line_numbers[0] * 128)
        assert cache.lookup(line_numbers[0] * 128) is None
