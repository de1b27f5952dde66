"""repro.serve: a crash-recoverable online prefetch-prediction service.

The package turns the offline Snake reproduction into an online service
that ingests per-load ``(warp, pc, addr, app)`` records and answers prefetch
prediction queries, engineered for the failure modes an online system
actually meets:

* :mod:`.protocol` — sans-I/O frame codec + strict request validation
* :mod:`.state`    — the deterministic core: admission, PC-sharded
  ``SnakePrefetcher`` sessions, circuit breakers, stride fallback
* :mod:`.journal`  — snapshots + write-ahead journal; deterministic
  byte-identical recovery
* :mod:`.service`  — the asyncio shell: backpressure, deadlines,
  slow-client eviction, probes
* :mod:`.loadgen`  — workload-suite replay as N concurrent clients
* :mod:`.chaos`    — seeded fault injection ending in a recovery
  certificate (kill -9 + torn journal + digest comparison)
"""

from .chaos import (
    SERVE_DEFAULT_RATES,
    SERVE_SITES,
    ServeChaosReport,
    ServeFaultPlan,
    run_serve_chaos,
    serve_catalog,
)
from .journal import Journal, JournalError, RecoveryReport
from .loadgen import LoadReport, ServeClient, run_loadgen, suite_events
from .protocol import (
    MAX_FRAME_BYTES,
    NACK_REASONS,
    OPS,
    FrameDecoder,
    FrameError,
    ack,
    encode_frame,
    nack,
    validate_request,
)
from .service import (
    PORT_FILE,
    PrefetchServer,
    ServeSettings,
    ServerStats,
    run_server,
)
from .state import ServeConfig, ServiceState

__all__ = [
    "MAX_FRAME_BYTES",
    "NACK_REASONS",
    "OPS",
    "PORT_FILE",
    "SERVE_DEFAULT_RATES",
    "SERVE_SITES",
    "FrameDecoder",
    "FrameError",
    "Journal",
    "JournalError",
    "LoadReport",
    "PrefetchServer",
    "RecoveryReport",
    "ServeChaosReport",
    "ServeClient",
    "ServeConfig",
    "ServeFaultPlan",
    "ServeSettings",
    "ServerStats",
    "ServiceState",
    "ack",
    "encode_frame",
    "nack",
    "run_loadgen",
    "run_serve_chaos",
    "run_server",
    "serve_catalog",
    "suite_events",
    "validate_request",
]
