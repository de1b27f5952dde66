"""GPU configuration objects.

The defaults mirror Table 1 of the paper (NVIDIA Volta V100 as modeled in
Accel-Sim v1.2.0).  Because the reproduction runs in pure Python, the
``scaled()`` preset shrinks the SM count and trace lengths while keeping every
per-SM parameter identical — prefetcher behaviour is per-SM, so the shapes of
the paper's results are preserved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable, List, Mapping


class InvalidConfigError(ValueError):
    """A configuration carries nonsensical parameters.

    One exception reports *every* violation found (``violations`` keeps the
    individual messages), so a mis-generated sweep config is diagnosed in a
    single round trip instead of one field at a time.  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` call sites keep
    working.
    """

    def __init__(self, violations: Iterable[str]) -> None:
        self.violations: List[str] = list(violations)
        super().__init__(
            "invalid GPU configuration (%d problem%s):\n%s"
            % (
                len(self.violations),
                "" if len(self.violations) == 1 else "s",
                "\n".join("  - " + v for v in self.violations),
            )
        )


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one set-associative cache."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int

    def __post_init__(self) -> None:
        if self.assoc < 1 or self.line_bytes < 1 or self.latency < 0:
            raise ValueError("invalid cache parameters")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ValueError(
                "cache size %d not divisible by assoc*line (%d*%d)"
                % (self.size_bytes, self.assoc, self.line_bytes)
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class DRAMTimings:
    """DRAM timing parameters in memory-clock cycles (Table 1, ns treated as
    cycles at the modeled clock)."""

    t_ccd: int = 1
    t_rrd: int = 3
    t_rcd: int = 12
    t_ras: int = 28
    t_rp: int = 12
    t_rc: int = 40
    t_cl: int = 12
    t_wl: int = 2
    t_cdlr: int = 3
    t_wr: int = 10
    t_ccdl: int = 2
    t_rtpl: int = 3


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU configuration (Table 1 defaults)."""

    num_sms: int = 80
    core_clock_mhz: int = 1530
    scheduler: str = "gto"  # "gto" (greedy-then-oldest) or "rr"
    schedulers_per_sm: int = 4
    max_threads_per_sm: int = 2048
    warp_size: int = 32
    registers_per_sm: int = 65536
    #: per-thread register allotment used to derive register-file warp
    #: occupancy (Volta default: 32 regs/thread fills the 64K file at
    #: exactly the 64-warp thread limit)
    registers_per_thread: int = 32

    # Unified L1 data cache / shared memory (128KB, 256-way, 128B, 28-cycle).
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=128 * 1024, assoc=256, line_bytes=128, latency=28
        )
    )
    shared_mem_bytes: int = 0  # carve-out from the unified cache
    #: fetch granularity within a line (0 = whole-line fills). Volta L1s
    #: fetch 32-byte sectors, which cuts fill bandwidth for sparse accesses.
    l1_sector_bytes: int = 0
    mshr_entries: int = 512
    mshr_merge: int = 8
    miss_queue_depth: int = 8

    # Shared L2 (96KB per sub-partition, 24-way, 128B, 212-cycle total trip).
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=96 * 1024, assoc=24, line_bytes=128, latency=212
        )
    )
    l2_banks: int = 64

    # Interconnect between L1s and L2 (bytes per core cycle per SM port).
    icnt_bytes_per_cycle: int = 32
    icnt_latency: int = 20

    # DRAM.
    dram: DRAMTimings = field(default_factory=DRAMTimings)
    dram_channels: int = 8
    dram_banks_per_channel: int = 16
    dram_row_bytes: int = 2048
    dram_clock_ratio: float = 0.5  # memory cycles per core cycle

    # Issue model.
    issue_width: int = 4  # instructions per SM per cycle (one per scheduler)
    alu_latency: int = 4
    sfu_latency: int = 16
    replay_interval: int = 32  # cycles before a reservation-failed access retries

    # Prefetching knobs (Snake defaults from the paper).
    tail_entries: int = 10
    head_entries: int = 32
    throttle_interval: int = 50
    throttle_bw_high: float = 0.70
    throttle_bw_low: float = 0.50
    train_threshold: int = 3  # warps that must confirm a stride
    prefetcher_latency: int = 2  # table search pipeline depth (§5.5)
    max_chain_depth: int = 8
    decouple_grace: int = 4096  # cycles an unused prefetched line is protected

    # Observability (repro.obs).  ``telemetry=True`` makes the GPU build an
    # event bus even when no explicit ``obs`` bus is passed; sinks attached
    # to ``GPU.obs`` then see every event.  ``telemetry_bucket_cycles`` is
    # the default time-series/trace bucket width for the CLI harness.
    telemetry: bool = False
    telemetry_bucket_cycles: int = 1000

    # Resilience (repro.runner / docs/ROBUSTNESS.md).  ``watchdog_cycles``
    # is the forward-progress window: if no instruction retires and no
    # memory request drains for this many cycles, ``GPU.run`` raises
    # ``SimulationHangError`` with a state dump (0 disables).
    # ``max_cycles`` is the hard deadman: any SM clock passing it aborts
    # the run the same way (0 = unlimited).
    watchdog_cycles: int = 100_000
    max_cycles: int = 0

    # Invariant sanitizer (repro.gpusim.sanitizer / docs/ROBUSTNESS.md).
    # ``sanitize=True`` makes ``GPU.run`` audit conservation invariants
    # (request retirement, MSHR balance, NoC monotonicity, table structure,
    # stats identities) every ``sanitize_interval`` simulated cycles and at
    # end of run, raising ``InvariantViolationError`` with a cycle-stamped
    # state dump on the first violation.  Strictly zero-cost when off: the
    # run loop holds a ``None`` and no per-cycle work is added.
    sanitize: bool = False
    sanitize_interval: int = 2000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field; raise one :class:`InvalidConfigError` listing
        all violations (no-op on a sane config).

        Runs from ``__post_init__`` (so an invalid config cannot be
        constructed) and again from ``GPU.__init__`` as a guard against
        configs rebuilt through serialization side channels.
        """
        v: List[str] = []
        if self.num_sms < 1:
            v.append("num_sms must be >= 1 (got %d)" % self.num_sms)
        if self.core_clock_mhz < 1:
            v.append("core_clock_mhz must be >= 1 (got %d)" % self.core_clock_mhz)
        if self.registers_per_sm < 1:
            v.append("registers_per_sm must be >= 1 (got %d)" % self.registers_per_sm)
        if self.registers_per_thread < 1:
            v.append(
                "registers_per_thread must be >= 1 (got %d)"
                % self.registers_per_thread
            )
        elif (
            self.warp_size >= 1
            and self.registers_per_sm < self.registers_per_thread * self.warp_size
        ):
            v.append(
                "registers_per_sm (%d) must hold at least one warp "
                "(%d regs/thread x %d lanes)"
                % (self.registers_per_sm, self.registers_per_thread, self.warp_size)
            )
        if self.warp_size < 1:
            v.append("warp_size must be >= 1 (got %d)" % self.warp_size)
        if self.max_threads_per_sm < self.warp_size:
            v.append(
                "max_threads_per_sm (%d) must hold at least one warp (%d)"
                % (self.max_threads_per_sm, self.warp_size)
            )
        if self.schedulers_per_sm < 1:
            v.append("schedulers_per_sm must be >= 1")
        if self.issue_width < 1:
            v.append("issue_width must be >= 1")
        if self.replay_interval < 1:
            v.append("replay_interval must be >= 1")
        if self.alu_latency < 1:
            v.append("alu_latency must be >= 1 (got %d)" % self.alu_latency)
        if self.sfu_latency < 1:
            v.append("sfu_latency must be >= 1 (got %d)" % self.sfu_latency)
        for label, cache in (("l1", self.l1), ("l2", self.l2)):
            if not _is_pow2(cache.line_bytes):
                v.append(
                    "%s line size must be a power of two (got %d)"
                    % (label, cache.line_bytes)
                )
        if self.l1_sector_bytes and (
            not _is_pow2(self.l1_sector_bytes)
            or self.l1.line_bytes % self.l1_sector_bytes != 0
        ):
            v.append(
                "l1_sector_bytes must be a power of two dividing the line "
                "size (got %d for %dB lines)"
                % (self.l1_sector_bytes, self.l1.line_bytes)
            )
        if self.shared_mem_bytes < 0:
            v.append("shared_mem_bytes must be >= 0")
        elif self.shared_mem_bytes >= self.l1.size_bytes:
            v.append("shared memory cannot consume the whole unified cache")
        if self.mshr_entries < 1:
            v.append("mshr_entries must be >= 1 (got %d)" % self.mshr_entries)
        if self.mshr_merge < 1:
            v.append("mshr_merge must be >= 1 (got %d)" % self.mshr_merge)
        if self.miss_queue_depth < 1:
            v.append("miss_queue_depth must be >= 1 (got %d)" % self.miss_queue_depth)
        if self.l2_banks < 1:
            v.append("l2_banks must be >= 1 (got %d)" % self.l2_banks)
        if self.icnt_bytes_per_cycle < 1:
            v.append(
                "icnt_bytes_per_cycle must be >= 1 (got %d)"
                % self.icnt_bytes_per_cycle
            )
        if self.icnt_latency < 0:
            v.append("icnt_latency must be >= 0")
        if self.dram_channels < 1:
            v.append("dram_channels must be >= 1 (got %d)" % self.dram_channels)
        if self.dram_banks_per_channel < 1:
            v.append("dram_banks_per_channel must be >= 1")
        if self.dram_row_bytes < 1:
            v.append("dram_row_bytes must be >= 1")
        if not 0.0 < self.dram_clock_ratio <= 1.0:
            v.append(
                "dram_clock_ratio must be in (0, 1] (got %g)" % self.dram_clock_ratio
            )
        if self.tail_entries < 1:
            v.append("tail_entries must be >= 1 (got %d)" % self.tail_entries)
        if self.head_entries < 1:
            v.append("head_entries must be >= 1 (got %d)" % self.head_entries)
        if self.throttle_interval < 0:
            v.append("throttle_interval must be >= 0")
        if not 0.0 <= self.throttle_bw_low <= self.throttle_bw_high <= 1.0:
            v.append(
                "throttle bandwidth thresholds must satisfy "
                "0 <= low (%g) <= high (%g) <= 1"
                % (self.throttle_bw_low, self.throttle_bw_high)
            )
        if self.train_threshold < 1:
            v.append("train_threshold must be >= 1")
        if self.prefetcher_latency < 0:
            v.append("prefetcher_latency must be >= 0")
        if self.max_chain_depth < 1:
            v.append("max_chain_depth must be >= 1")
        if self.decouple_grace < 0:
            v.append("decouple_grace must be >= 0")
        if self.telemetry_bucket_cycles < 1:
            v.append("telemetry_bucket_cycles must be >= 1")
        if self.watchdog_cycles < 0:
            v.append("watchdog_cycles must be >= 0 (0 disables the watchdog)")
        if self.max_cycles < 0:
            v.append("max_cycles must be >= 0 (0 = unlimited)")
        if self.sanitize_interval < 1:
            v.append("sanitize_interval must be >= 1 (got %d)" % self.sanitize_interval)
        if v:
            raise InvalidConfigError(v)

    @property
    def max_warps_per_sm(self) -> int:
        """Resident-warp capacity: the tighter of the thread limit and the
        register-file limit (each warp reserves ``registers_per_thread``
        registers per lane)."""
        thread_limit = self.max_threads_per_sm // self.warp_size
        register_limit = self.registers_per_sm // (
            self.registers_per_thread * self.warp_size
        )
        return min(thread_limit, register_limit)

    @property
    def l1_data_bytes(self) -> int:
        """Unified-cache space left after the shared-memory carve-out."""
        return self.l1.size_bytes - self.shared_mem_bytes

    @classmethod
    def volta_v100(cls) -> "GPUConfig":
        """Full-scale Table 1 configuration."""
        return cls()

    @classmethod
    def scaled(cls, num_sms: int = 2) -> "GPUConfig":
        """Python-runtime-friendly preset: fewer SMs, identical per-SM
        parameters except a smaller (proportional) L1 so that the scaled-down
        synthetic working sets exercise the same contention regime."""
        return cls(
            num_sms=num_sms,
            l1=CacheConfig(size_bytes=32 * 1024, assoc=64, line_bytes=128, latency=28),
            l2=CacheConfig(size_bytes=64 * 1024, assoc=16, line_bytes=128, latency=200),
            l2_banks=8,
            mshr_entries=64,
            mshr_merge=6,
            miss_queue_depth=3,
            icnt_bytes_per_cycle=24,
            icnt_latency=60,
            dram_channels=2,
            dram_banks_per_channel=8,
            max_threads_per_sm=1024,
        )

    def with_(self, **kwargs: Any) -> "GPUConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Plain-data form (nested dataclasses become dicts) — JSON-safe, so
        a config can ride in a :mod:`repro.runner` job spec or checkpoint."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "GPUConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown fields raise :class:`InvalidConfigError` (a checkpoint
        written by a newer revision should fail loudly, not half-apply).
        """
        data = dict(data)
        try:
            for key, sub in (("l1", CacheConfig), ("l2", CacheConfig), ("dram", DRAMTimings)):
                if isinstance(data.get(key), Mapping):
                    data[key] = sub(**data[key])
            return cls(**data)
        except InvalidConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError([str(exc)]) from exc
