"""Prefetcher API, registry, and machine setups."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.coalescer import coalesce_lines
from repro.gpusim.config import CacheConfig, GPUConfig
from repro.gpusim.unified_cache import StorageMode
from repro.prefetch import COMPARISON_POINTS, build_setup
from repro.prefetch.base import Prefetcher, available, create

#: Every registered prefetcher and every machine setup's prefetcher
#: (the Snake variants, and snake+cta's composite).
MECHANISMS = sorted(set(available()) | set(COMPARISON_POINTS) | {"isolated-snake"})


def _records(seed, length, pcs, warps):
    """``observe`` argument tuples ``(warp, pc, addr, app, divergent, now,
    cta)``: warps take turns, each running the ``pcs`` loads of one loop
    iteration, four warps to a CTA.  Addresses start near 0, and loop,
    warp and CTA strides may be negative, so predicted targets regularly
    fall below 0; an address never does, as the SM coalesces no negative
    one.  One load in eight jumps far, so spatial mechanisms see new
    regions and chunks."""
    rng = random.Random(seed)
    strides = [rng.choice((-160, -96, -64, -4, 4, 64, 128)) for _ in range(pcs)]
    descending = rng.random() < 0.5  # later warps and CTAs sit lower
    cursors = {}
    records = []
    for k in range(length):
        warp = (k // pcs) % warps
        index = k % pcs
        if rng.random() < 0.125:
            addr = rng.randrange(0, 1 << 22)
        else:
            slot = warps - 1 - warp if descending else warp
            addr = cursors.get((warp, index), slot * 256 + index * 32)
        nxt = addr + strides[index]
        cursors[warp, index] = nxt if nxt >= 0 else rng.randrange(0, 256)
        records.append((warp, 0x100 + 4 * index, addr, rng.randrange(2),
                        rng.random() < 0.05, k, warp // 4))
    return records


def _prefetcher(name):
    return build_setup(name, GPUConfig.scaled()).prefetcher_factory()


def _check_pair(pair):
    """The pair contract every mechanism's ``observe`` keeps."""
    assert type(pair) is tuple and len(pair) == 2
    base_addr, depth = pair
    assert type(base_addr) is int and type(depth) is int
    assert base_addr >= 0 and depth >= 1


class TestRequestValidation:
    """The pair contract rejects what ``PrefetchRequest`` once rejected;
    ``TestPairContract`` holds every mechanism to it."""

    def test_rejects_negative_address(self):
        with pytest.raises(AssertionError):
            _check_pair((-1, 1))
        # Were one to slip through, the L1's prefetch path would refuse it.
        with pytest.raises(ValueError):
            coalesce_lines(-1, 4, 4, 32, 128)

    def test_rejects_zero_depth(self):
        with pytest.raises(AssertionError):
            _check_pair((0, 0))
        _check_pair((0, 1))


class TestPairContract:
    """Every mechanism returns ``(base_addr, depth)`` pairs of ints with
    a non-negative address and a depth of at least 1."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), length=st.integers(1, 400),
           pcs=st.integers(1, 6), warps=st.integers(1, 12))
    @pytest.mark.parametrize("name", MECHANISMS)
    def test_every_pair_is_a_valid_request(self, name, seed, length, pcs,
                                           warps):
        prefetcher = _prefetcher(name)
        for record in _records(seed, length, pcs, warps):
            for pair in prefetcher.observe(*record):
                _check_pair(pair)

    def test_streams_make_every_mechanism_predict(self):
        """The contract test is not vacuous: on one long stream every
        mechanism but the null one returns pairs."""
        records = _records(1, 4000, 4, 16)
        for name in MECHANISMS:
            prefetcher = _prefetcher(name)
            predicted = sum(len(prefetcher.observe(*r)) for r in records)
            assert (predicted > 0) == (name != "none"), name


class TestRegistry:
    def test_known_names(self):
        for name in ("none", "intra", "inter", "mta", "cta", "tree", "ideal"):
            assert name in available()
            assert isinstance(create(name), Prefetcher)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            create("nope")

    def test_null_prefetcher_is_silent(self):
        assert create("none").observe(0, 0, 0) == []


class TestBuildSetup:
    def test_all_comparison_points_resolve(self):
        config = GPUConfig.scaled()
        for name in COMPARISON_POINTS + ["none", "ideal", "isolated-snake"]:
            setup = build_setup(name, config)
            assert setup.prefetcher_factory() is not None

    def test_snake_uses_decoupled_storage_and_throttle(self):
        from repro.core.throttle import Throttle

        setup = build_setup("snake", GPUConfig.scaled())
        assert setup.storage_mode is StorageMode.DECOUPLED
        assert isinstance(setup.throttle_factory(), Throttle)

    def test_snake_dt_is_coupled_unthrottled(self):
        from repro.core.throttle import NullThrottle

        setup = build_setup("snake-dt", GPUConfig.scaled())
        assert setup.storage_mode is StorageMode.COUPLED
        assert isinstance(setup.throttle_factory(), NullThrottle)

    def test_snake_t_is_decoupled_unthrottled(self):
        from repro.core.throttle import NullThrottle

        setup = build_setup("snake-t", GPUConfig.scaled())
        assert setup.storage_mode is StorageMode.DECOUPLED
        assert isinstance(setup.throttle_factory(), NullThrottle)

    def test_isolated_snake(self):
        setup = build_setup("isolated-snake", GPUConfig.scaled())
        assert setup.storage_mode is StorageMode.ISOLATED

    def test_s_snake_disables_fixed_strides(self):
        setup = build_setup("s-snake", GPUConfig.scaled())
        snake = setup.prefetcher_factory()
        assert snake.use_chains and not snake.use_intra and not snake.use_inter_warp

    def test_decoupled_flag_upgrades_baselines(self):
        setup = build_setup("mta", GPUConfig.scaled(), decoupled=True)
        assert setup.storage_mode is StorageMode.DECOUPLED

    def test_snake_config_knobs_propagate(self):
        config = GPUConfig.scaled().with_(tail_entries=7, train_threshold=2)
        snake = build_setup("snake", config).prefetcher_factory()
        assert snake.tail.capacity == 7
        assert snake.train_threshold == 2

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            build_setup("bogus", GPUConfig.scaled())

    def test_fresh_prefetcher_per_call(self):
        setup = build_setup("snake", GPUConfig.scaled())
        assert setup.prefetcher_factory() is not setup.prefetcher_factory()

    def test_snake_cta_forwards_the_throttle_depth_cap(self):
        """§3.2's chain-depth cap reaches the Snake inside snake+cta: the
        Snake part receives every cap the throttle computes, in order."""
        from repro.core.snake import SnakePrefetcher
        from repro.gpusim.gpu import GPU
        from repro.workloads import build_kernel

        setup = build_setup("snake+cta", GPUConfig.scaled())
        computed, received = [], []

        def throttle_factory():
            throttle = setup.throttle_factory()
            chain_depth_limit = throttle.chain_depth_limit

            def spy(utilization, max_depth):
                computed.append(chain_depth_limit(utilization, max_depth))
                return computed[-1]

            throttle.chain_depth_limit = spy
            return throttle

        def prefetcher_factory():
            composite = setup.prefetcher_factory()
            (snake,) = [part for part in composite.parts
                        if isinstance(part, SnakePrefetcher)]
            set_depth_limit = snake.set_depth_limit

            def spy(limit):
                received.append(limit)
                set_depth_limit(limit)

            snake.set_depth_limit = spy
            return composite

        GPU(
            config=setup.config,
            prefetcher_factory=prefetcher_factory,
            throttle_factory=throttle_factory,
            storage_mode=setup.storage_mode,
        ).run(build_kernel("lps", scale=0.1, seed=1))
        assert computed and received == computed


class TestLineSize:
    """The line-granular baselines take the L1's configured line size."""

    CONFIG = GPUConfig.scaled().with_(l1=CacheConfig(32 * 1024, 64, 64, 28))

    def test_config_is_valid(self):
        self.CONFIG.validate()

    @pytest.mark.parametrize("name", ["tree", "bingo", "domino"])
    def test_setup_passes_line_bytes(self, name):
        assert build_setup(name, self.CONFIG).prefetcher_factory().line_bytes == 64

    def test_tree_requests_consecutive_64_byte_lines(self):
        tree = build_setup("tree", self.CONFIG).prefetcher_factory()
        assert tree.observe(0, 0x10, 0) == [
            (64 * k, k) for k in range(1, tree.burst + 1)
        ]

    def test_bingo_counts_footprint_in_64_byte_lines(self):
        bingo = build_setup(
            "bingo", self.CONFIG, region_bytes=1024, max_regions=1
        ).prefetcher_factory()
        for offset in (0, 3, 5):
            bingo.observe(0, 0x10, offset * 64)
        requests = bingo.observe(0, 0x10, 1 << 20)
        assert sorted((addr - (1 << 20)) // 64 for addr, _ in requests) == [3, 5]
