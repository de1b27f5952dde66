"""Row-buffer DRAM timing model.

Each bank keeps its open row and next-free time; a row hit costs tCL, a row
miss pays precharge + activate + CAS (tRP + tRCD + tCL), and tRC bounds
back-to-back activates — the Table 1 parameters drive all of it.  Times are
kept in core cycles; DRAM timings are converted through the configured
core/memory clock ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import BusLike, DramRowActivateEvent, NULL_BUS

from .config import DRAMTimings
from .faults import FaultInjector


@dataclass(slots=True)
class _BankState:
    open_row: int = -1
    next_free: int = 0
    priority_next_free: int = 0
    last_activate: int = -(10**9)
    # Activate spacing is tracked per priority class: a best-effort prefetch
    # scheduled far in the future must not drag demand activates behind it
    # (the controller serves demand first and replays the prefetch after).
    last_priority_activate: int = -(10**9)


@dataclass(slots=True)
class _ChannelState:
    next_free: int = 0
    priority_next_free: int = 0
    banks: List[_BankState] = field(default_factory=list)


class DRAM:
    """A multi-channel, multi-bank DRAM with open-page policy."""

    BURST_BYTES_PER_MEM_CYCLE = 32

    def __init__(
        self,
        timings: DRAMTimings,
        channels: int,
        banks_per_channel: int,
        row_bytes: int,
        clock_ratio: float,
        line_bytes: int,
        obs: Optional[BusLike] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if channels < 1 or banks_per_channel < 1:
            raise ValueError("need at least one channel and bank")
        self._obs = obs if obs is not None else NULL_BUS
        self._faults = faults  # optional chaos hook (dram.latency_spike)
        self.timings = timings
        self.row_bytes = row_bytes
        self.clock_ratio = clock_ratio
        self.line_bytes = line_bytes
        self._channels = [
            _ChannelState(banks=[_BankState() for _ in range(banks_per_channel)])
            for _ in range(channels)
        ]
        # Address-map geometry read once: ``access`` runs on every L2 miss.
        self._channel_count = channels
        self._bank_count = banks_per_channel
        self._row_span = row_bytes * channels
        self.reads = 0
        self.row_hits = 0
        self.row_misses = 0
        # Table 1 timings converted to core cycles once: tRC, the burst
        # (the channel's busy offset) and, for a row hit and a row miss,
        # the (done, bank busy) offsets from the start, indexed by is_write.
        t, cycles = timings, self._core_cycles
        burst = max(t.t_ccd, line_bytes // self.BURST_BYTES_PER_MEM_CYCLE)
        self._t_rc = cycles(t.t_rc)
        self._burst = cycles(burst)
        self._hit_offsets, self._miss_offsets = (
            ((cycles(cas + burst),) * 2,
             (cycles(cas + t.t_wl + burst),
              cycles(cas + t.t_wl + burst + t.t_wr)))
            for cas in (t.t_cl, t.t_rp + t.t_rcd + t.t_cl)
        )

    def _core_cycles(self, mem_cycles: int) -> int:
        return max(1, round(mem_cycles / self.clock_ratio))

    def access(
        self, line_addr: int, now: int, is_write: bool = False,
        priority: bool = True,
    ) -> int:
        """Service one line transfer; returns its completion time (core
        cycles).  Demand requests (``priority=True``) schedule ahead of
        best-effort prefetch traffic, which queues behind everything."""
        # Lines interleave across channels, then banks; a row spans
        # ``row_bytes`` in every channel.
        line_no = line_addr // self.line_bytes
        ch_idx = line_no % self._channel_count
        channel = self._channels[ch_idx]
        bank_no = line_no // self._channel_count % self._bank_count
        bank = channel.banks[bank_no]
        row = line_addr // self._row_span
        if priority:
            start = max(now, bank.priority_next_free, channel.priority_next_free)
        else:
            start = max(now, bank.next_free, channel.next_free)

        if bank.open_row == row:
            self.row_hits += 1
            done_offset, busy_offset = self._hit_offsets[is_write]
        else:
            self.row_misses += 1
            # Respect the minimum activate-to-activate spacing (tRC) within
            # the request's own priority class.
            reference = (
                bank.last_priority_activate if priority else bank.last_activate
            )
            start = max(start, reference + self._t_rc)
            bank.last_activate = max(bank.last_activate, start)
            if priority:
                bank.last_priority_activate = max(
                    bank.last_priority_activate, start
                )
            bank.open_row = row
            if self._obs.enabled:
                self._obs.emit(
                    DramRowActivateEvent(
                        cycle=start, sm_id=-1, channel=ch_idx, bank=bank_no,
                        row=row,
                    )
                )
            done_offset, busy_offset = self._miss_offsets[is_write]

        done = start + done_offset
        bank_busy_until = start + busy_offset
        channel_busy_until = start + self._burst
        bank.next_free = max(bank.next_free, bank_busy_until)
        channel.next_free = max(channel.next_free, channel_busy_until)
        if priority:
            bank.priority_next_free = max(bank.priority_next_free, bank_busy_until)
            channel.priority_next_free = max(
                channel.priority_next_free, channel_busy_until
            )
        self.reads += 0 if is_write else 1
        if self._faults is not None:
            # Chaos dram.latency_spike on the returned completion only; the
            # bank/channel horizons keep their fault-free schedule.
            done += self._faults.delay("dram.latency_spike", now)
        return done

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0
