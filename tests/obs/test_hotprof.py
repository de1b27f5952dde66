"""``profile --hot``: wall-time attribution must meter the lanes the SM
actually calls, and must not change what the simulation computes."""

from repro.gpusim import GPUConfig, simulate
from repro.obs.hotprof import HOT_BUCKETS, hot_profile_run
from repro.workloads import build_kernel


def _buckets(profile):
    return {bucket.name: bucket for bucket in profile.buckets}


def test_snake_run_meters_table_walk_and_issue():
    profile = hot_profile_run("lps", "snake", scale=0.1)
    buckets = _buckets(profile)
    assert list(buckets) == [name for name, _ in HOT_BUCKETS]
    # The SM probes its raw observe lane once, at construction; the
    # profile must repoint that probe at the meter or table-walk reads 0.
    for name in ("table-walk", "issue", "coalesce", "cache"):
        assert buckets[name].calls > 0, name
        assert buckets[name].seconds > 0, name
    # At most one issue call per observed load: prefetch() runs nested
    # inside prefetch_trigger and must not be metered a second time.
    assert buckets["issue"].calls <= buckets["table-walk"].calls
    assert 0 < profile.attributed_s <= profile.wall_s
    plain = simulate(build_kernel("lps", scale=0.1, seed=1),
                     prefetcher="snake", config=GPUConfig.scaled())
    assert (profile.cycles, profile.instructions) == \
        (plain.cycles, plain.instructions)
    assert "table-walk" in profile.render()


def test_no_prefetcher_run_has_no_learner_or_issue_calls():
    buckets = _buckets(hot_profile_run("lps", "none", scale=0.1))
    assert buckets["table-walk"].calls == 0
    assert buckets["issue"].calls == 0
    assert buckets["cache"].calls > 0
