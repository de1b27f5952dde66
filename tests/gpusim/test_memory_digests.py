"""The memory-side paths no other digest covers, pinned byte for byte.

``tests/prefetch/test_mechanism_digests.py`` and perfbench run whole-line
L1s without faults.  The digests below pin the two remaining ways a run
can take through the L1 miss/fill path, the NoC, the L2 and DRAM:

* a sectored L1 (``l1_sector_bytes=32``), where a resident line can miss
  on sectors it never fetched and a demand fill carries only the touched
  sectors;
* a fault plan arming the five memory-side sites, whose draws must keep
  their cadence (one RNG stream is shared by every site, so a draw taken
  earlier or later moves every fault after it).

Each digest is the sha256 of canonical JSON (sorted keys, no whitespace),
as in the mechanism digests; the fault digest also covers the injector's
per-site fire counts, which ``SimStats`` does not hold.  A change that
only makes these paths cheaper must leave every digest as it is.
"""

import hashlib
import json

import pytest

from repro.gpusim import GPUConfig, simulate
from repro.gpusim.faults import DEFAULT_RATES, FaultInjector, FaultPlan
from repro.workloads import build_kernel

MEMORY_SITES = (
    "icnt.delay_fill",
    "icnt.drop_fill",
    "l1.mshr_refuse",
    "l2.latency_spike",
    "dram.latency_spike",
)

#: (app, mechanism) -> digest with a 32-byte-sectored L1, scale 0.25, seed 1.
#: mum's warps touch every sector of each line they load, so its sectored
#: runs digest as its whole-line ones do; lps's do not.
SECTORED_DIGESTS = {
    ("lps", "none"): "cccfffb5137d380a70bc1f4201f5c819a8cafe6b8fd13c998ce811fc52a268f4",
    ("lps", "snake"): "ca6f47462f425938c446c0c6d3f8be20c7b7268d19fe3195f2b965c240a95194",
    ("mum", "none"): "ba1e0c65f081b7fa54420a35928d711a14b104baeacdf4df28abfcc66a081d40",
    ("mum", "snake"): "3ccfa567db24a7288b86bce15927661705c0ff94a0c690d93ab18491da5ce445",
}

#: lps under snake, scale 0.25, seed 1, the five memory sites at their
#: default rates with fault seed 1
FAULT_DIGEST = "723635a098bd6a54128327dd1dd46e6d2c6b27967574bdb99d2f66f5aea51fee"


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("app, mechanism", sorted(SECTORED_DIGESTS))
def test_sectored_l1_digest(app, mechanism):
    config = GPUConfig.scaled().with_(l1_sector_bytes=32)
    stats = simulate(build_kernel(app, scale=0.25, seed=1), mechanism, config=config)
    assert _digest(stats.to_json_dict()) == SECTORED_DIGESTS[app, mechanism]


def test_memory_fault_sites_digest():
    plan = FaultPlan.make({site: DEFAULT_RATES[site] for site in MEMORY_SITES}, seed=1)
    injector = FaultInjector(plan)
    stats = simulate(build_kernel("lps", scale=0.25, seed=1), "snake", faults=injector)
    fired = injector.summary()
    # Every armed site must actually fire, or the digest pins nothing.
    assert set(fired) == set(MEMORY_SITES) and all(fired.values()), fired
    payload = {"stats": stats.to_json_dict(), "faults": fired}
    assert _digest(payload) == FAULT_DIGEST
