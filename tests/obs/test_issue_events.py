"""The L1 issue lane emits the naive reference's event stream.

``UnifiedL1Cache.prefetch_trigger`` emits its own throttle, drop and
issue events while it memoizes the throttle vote and admits each line of
every request that passed it.  With the bus enabled, the full ordered
event list of a traced run must equal the one produced with the
per-request, per-line reference lane (``tests/gpusim/reference_issue.py``)
installed — with and without chaos faults, on machines that make the
throttle refuse for bandwidth and for space, and in isolated storage mode,
where duplicates are also found in the side buffer.
"""

import dataclasses
from collections import Counter

import pytest

from repro.gpusim import FaultPlan, GPUConfig, simulate
from repro.obs.events import EventBus, Sink, ThrottleEvent
from repro.workloads import build_kernel

from ..gpusim import reference_issue


class RecordingSink(Sink):
    def __init__(self):
        self.events = []

    def accept(self, event):
        self.events.append(event)


def _machine(name):
    config = GPUConfig.scaled()
    if name == "tight-noc":
        # Bandwidth trigger: the NoC crosses the hysteresis band often.
        return config.with_(throttle_bw_high=0.5, throttle_bw_low=0.35)
    if name == "small-l1":
        # Space trigger: a quarter-size L1 fills with unused prefetches.
        return config.with_(l1=dataclasses.replace(
            config.l1, size_bytes=config.l1.size_bytes // 4, assoc=8,
        ))
    return config


def _traced(app, mechanism, machine, faults):
    sink = RecordingSink()
    stats = simulate(
        build_kernel(app, scale=0.2, seed=1),
        prefetcher=mechanism,
        config=_machine(machine),
        obs=EventBus([sink]),
        faults=FaultPlan.storm(seed=3, delay_cycles=200) if faults else None,
    )
    return sink.events, stats


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("machine,refusal", [
    ("paper", None), ("tight-noc", "bandwidth"), ("small-l1", "space"),
])
@pytest.mark.parametrize("mechanism", ["snake", "isolated-snake", "intra"])
def test_event_stream_matches_reference_issue(mechanism, machine, refusal,
                                              faults):
    events, stats = _traced("lps", mechanism, machine, faults)
    with pytest.MonkeyPatch.context() as monkeypatch:
        reached = reference_issue.install(monkeypatch)
        reference_events, reference_stats = _traced(
            "lps", mechanism, machine, faults
        )
    assert reached["trigger"] > 0, "the reference issue lane never ran"
    assert stats == reference_stats
    kinds = Counter(type(event).__name__ for event in events)
    assert kinds["PrefetchIssueEvent"] and kinds["PrefetchDropEvent"]
    assert bool(kinds["FaultEvent"]) == faults
    if mechanism == "snake" and refusal is not None:
        # Snake runs the §3.3 throttle; the tight machines make it refuse.
        assert refusal in {
            event.reason for event in events
            if isinstance(event, ThrottleEvent)
        }
    assert events == reference_events
