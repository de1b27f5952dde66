"""One NoC reading per trigger.

The SM reads both NoC ports once per observed load to cap Snake's chain
depth (§3.2) and hands that reading to ``UnifiedL1Cache.prefetch_trigger``,
whose first throttle vote (§3.3) uses it instead of reading the ports
again: both happen at the same cycle and nothing between them sends.
A counting spy on ``Interconnect.measured_utilization`` records every
read beside the trigger, vote, depth-cap and send calls of a run.
"""

import pytest

from repro.core.throttle import NullThrottle, Throttle
from repro.gpusim import GPUConfig, simulate
from repro.gpusim.interconnect import Interconnect
from repro.gpusim.unified_cache import UnifiedL1Cache
from repro.workloads import build_kernel


def _recorded_run(monkeypatch, mechanism):
    """Run LPS under ``mechanism`` and return the ordered call log:
    ``("read", port)``, ``("send", port)``, ``("trigger", l1)``,
    ``("vote", throttle)`` and ``("depth", throttle)`` entries."""
    log = []

    def spy(cls, name, tag):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            log.append((tag, self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    spy(Interconnect, "measured_utilization", "read")
    spy(Interconnect, "send", "send")
    spy(UnifiedL1Cache, "prefetch_trigger", "trigger")
    for throttle in (Throttle, NullThrottle):
        spy(throttle, "allow", "vote")
        spy(throttle, "chain_depth_limit", "depth")
    simulate(
        build_kernel("lps", scale=0.15, seed=1),
        prefetcher=mechanism,
        config=GPUConfig.scaled(),
    )
    return log


def _triggers(log):
    """Per trigger: (its index in the log, the indices of its votes)."""
    triggers = []
    votes = None
    for index, (tag, _obj) in enumerate(log):
        if tag == "trigger":
            votes = []
            triggers.append((index, votes))
        elif tag == "depth":
            votes = None  # the next load's depth cap: the trigger is over
        elif tag == "vote" and votes is not None:
            votes.append(index)
    return triggers


def _reads_both_ports(log, index):
    """The two entries before ``index`` read the two different ports."""
    (tag_a, port_a), (tag_b, port_b) = log[index - 2], log[index - 1]
    return tag_a == tag_b == "read" and port_a is not port_b


def test_snake_trigger_reuses_the_depth_cap_reading(monkeypatch):
    log = _recorded_run(monkeypatch, "snake")
    triggers = _triggers(log)
    assert triggers
    last_depth = None
    depth_at = {}
    for index, (tag, _obj) in enumerate(log):
        if tag == "depth":
            last_depth = index
        elif tag == "trigger":
            depth_at[index] = last_depth
    for start, votes in triggers:
        depth = depth_at[start]
        assert depth is not None and votes
        # One read per port, for the depth cap ...
        assert _reads_both_ports(log, depth)
        # ... and none again before the first vote.
        assert all(tag != "read" for tag, _obj in log[depth + 1:votes[0]])


def test_snake_trigger_reads_again_after_a_request_sent(monkeypatch):
    log = _recorded_run(monkeypatch, "snake")
    reread = 0
    for _start, votes in _triggers(log):
        for previous, vote in zip(votes, votes[1:]):
            if any(tag == "send" for tag, _obj in log[previous:vote]):
                assert _reads_both_ports(log, vote)
                reread += 1
    assert reread > 0


@pytest.mark.parametrize("mechanism", ["intra", "inter"])
def test_prefetcher_without_depth_cap_reads_at_first_vote(monkeypatch,
                                                          mechanism):
    log = _recorded_run(monkeypatch, mechanism)
    assert all(tag != "depth" for tag, _obj in log)
    triggers = _triggers(log)
    assert triggers
    for start, votes in triggers:
        assert votes and votes[0] == start + 3
        assert _reads_both_ports(log, votes[0])
