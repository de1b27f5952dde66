"""The benchmark's workloads and the inputs each one is built from.

Every workload is a closed loop: one caller, each call issued when the
previous one returned.  ``seeded`` says whether ``--seed`` changes the
inputs.  The LPS kernel has no random component, so the LPS workloads
run the same inputs at every seed; MUM's tree hops are drawn from the
seed, and so are the records of the serve clients that replay MUM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

#: The seed the committed digests were taken at.
DEFAULT_SEED = 1

Record = Tuple[str, int, int, int, int]


@dataclass(frozen=True)
class SimWorkload:
    """One kernel simulated on one machine configuration."""

    name: str
    app: str
    mechanism: str
    preset: str  # "scaled" (2 SMs) or "v100" (full Table 1 machine)
    scale: float
    smoke_scale: float
    seeded: bool
    overrides: Tuple[Tuple[str, Any], ...] = ()
    grid: Optional[Tuple[int, int]] = None  # (CTAs, warps per CTA)
    smoke_grid: Optional[Tuple[int, int]] = None

    min_setups = 5

    def build(self, seed: int, smoke: bool) -> Tuple[Any, Any]:
        """The machine set-up and kernel trace for one repetition."""
        from repro.gpusim.config import GPUConfig
        from repro.prefetch import build_setup
        from repro.workloads import GridShape, build_kernel

        config = (
            GPUConfig.volta_v100() if self.preset == "v100" else GPUConfig.scaled()
        )
        if self.overrides:
            config = config.with_(**dict(self.overrides))
        setup = build_setup(self.mechanism, config)
        grid = self.smoke_grid if smoke else self.grid
        kwargs: Dict[str, Any] = {"grid": GridShape(*grid)} if grid else {}
        kernel = build_kernel(
            self.app, scale=self.smoke_scale if smoke else self.scale,
            seed=seed, **kwargs,
        )
        return setup, kernel


@dataclass(frozen=True)
class ServeWorkload:
    """The serve load generator's traffic drained through ``ServiceState``.

    ``clients`` sessions each replay one app's kernel events, as
    ``repro.serve.run_loadgen`` sends them: client ``i`` replays
    ``apps[i % len(apps)]``, truncated to ``events`` accesses, with its
    addresses offset by ``i * CLIENT_ADDR_STRIDE``.  A closed-loop client
    has one request in flight, so the service's queue holds one record
    per waiting client; the worker sweeps up to its ``batch_limit`` of
    them into one ``apply_batch`` call.  With as many clients as that
    limit, every sweep holds the next record of each client, in client
    order.
    """

    name: str
    apps: Tuple[str, ...]
    scale: float
    events: int
    smoke_events: int
    clients: int = 32

    seeded = True
    min_setups = 51  # set-up takes microseconds: many samples steady it

    def records(self, seed: int, smoke: bool) -> Tuple[List[str], List[Record]]:
        """Client names and the ``(client, warp, pc, addr, app)`` records
        in the order the service's queue receives them."""
        from repro.serve import suite_events
        from repro.serve.loadgen import CLIENT_ADDR_STRIDE

        per_app = suite_events(self.apps, scale=self.scale, seed=seed)
        count = self.smoke_events if smoke else self.events
        names = ["lg-%05d" % i for i in range(self.clients)]
        streams = [per_app[i % len(per_app)][:count] for i in range(self.clients)]
        records: List[Record] = []
        for k in range(max(len(s) for s in streams)):
            for i, stream in enumerate(streams):
                if k < len(stream):
                    warp, pc, addr = stream[k]
                    records.append((names[i], warp, pc, addr + i * CLIENT_ADDR_STRIDE, 0))
        return names, records


Workload = Union[SimWorkload, ServeWorkload]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        SimWorkload(
            "quickstart-snake", "lps", "snake", "scaled", 1.0, 0.1, seeded=False,
        ),
        SimWorkload(
            "quickstart-none", "lps", "none", "scaled", 1.0, 0.1, seeded=False,
        ),
        SimWorkload(
            "longchain-mum", "mum", "snake", "scaled", 0.3, 0.1, seeded=True,
            overrides=(("tail_entries", 64), ("max_chain_depth", 16)),
        ),
        SimWorkload(
            "v100-lps-snake", "lps", "snake", "v100", 0.125, 0.1, seeded=False,
            grid=(80, 8), smoke_grid=(80, 1),
        ),
        # The load generator's default suite, plus MUM so that the seed
        # changes the traffic.
        ServeWorkload(
            "serve-drain", apps=("lps", "hotspot", "backprop", "mum"),
            scale=0.25, events=500, smoke_events=60,
        ),
    )
}


__all__ = [
    "DEFAULT_SEED",
    "Record",
    "ServeWorkload",
    "SimWorkload",
    "WORKLOADS",
    "Workload",
]
