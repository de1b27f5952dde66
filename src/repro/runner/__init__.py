"""Fault-tolerant experiment execution (the sweep runner).

The paper's evaluation is a large (app x mechanism x config x scale x
seed) grid; this package makes running it resilient — a fleet-grade
scheduler/worker architecture:

* :mod:`repro.runner.jobs` — :class:`JobSpec` (one grid cell) and the
  deterministic :func:`job_hash` that is the cell's identity everywhere
  (checkpoint key, dedup key, work-stealing shard key).
* :mod:`repro.runner.scheduler` — the :class:`Scheduler`: shard queues
  with work stealing, expiring leases renewed by heartbeats, retry /
  ``worker-lost`` / poison-quarantine recovery, exactly-once settlement
  by job hash, and graceful SIGINT/SIGTERM drain.
* :mod:`repro.runner.leases` — the lease table (liveness window vs
  absolute per-job deadline).
* :mod:`repro.runner.transport` — the pluggable message plane between
  scheduler and workers (inline virtual workers, persistent subprocess
  workers; socket-shaped for a future distributed plane).
* :mod:`repro.runner.worker` — the worker-process claim/execute/report
  loop and its heartbeat thread.
* :mod:`repro.runner.pool` — the stable facade: :func:`run_jobs` /
  :func:`run_grid` with the legacy inline (``jobs=0``) and subprocess
  (``jobs>=1``) semantics.
* :mod:`repro.runner.checkpoint` — atomic JSONL checkpointing, the
  ``--resume`` semantics, and torn-line quarantine.
* :mod:`repro.runner.errors` — the structured error taxonomy
  (``JobTimeout`` / ``JobCrash`` / ``SimulationHang`` / ``InvalidConfig``
  / ``invariant:<name>`` / ``worker-lost`` / ``poison`` /
  ``checkpoint:torn``).

The full walkthrough (formats, tuning, chaos hooks, the failure-mode ->
detection -> recovery matrix) is ``docs/ROBUSTNESS.md``; the CLI front
ends are ``snake-repro sweep`` and ``snake-repro chaos --runner``.
"""

from .checkpoint import Checkpoint, CheckpointError
from .errors import (
    ERROR_KINDS,
    CheckpointTorn,
    FailedResult,
    InvalidConfig,
    InvalidConfigError,
    InvariantViolation,
    InvariantViolationError,
    JobCrash,
    JobError,
    JobTimeout,
    PoisonedJob,
    SimulationHang,
    SimulationHangError,
    WorkerLost,
    is_retryable,
)
from .jobs import JobSpec, execute_job, job_hash, shard_of
from .leases import Lease, LeaseTable
from .pool import SweepResult, default_jobs, grid_specs, run_grid, run_jobs
from .scheduler import Scheduler
from .transport import (
    InlineTransport,
    SubprocessTransport,
    Transport,
    VirtualClock,
    WallClock,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointTorn",
    "ERROR_KINDS",
    "FailedResult",
    "InlineTransport",
    "InvalidConfig",
    "InvalidConfigError",
    "InvariantViolation",
    "InvariantViolationError",
    "JobCrash",
    "JobError",
    "JobSpec",
    "JobTimeout",
    "Lease",
    "LeaseTable",
    "PoisonedJob",
    "Scheduler",
    "SimulationHang",
    "SimulationHangError",
    "SubprocessTransport",
    "SweepResult",
    "Transport",
    "VirtualClock",
    "WallClock",
    "WorkerLost",
    "default_jobs",
    "execute_job",
    "grid_specs",
    "is_retryable",
    "job_hash",
    "run_grid",
    "run_jobs",
    "shard_of",
]
