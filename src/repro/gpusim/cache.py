"""Set-associative tag store and MSHR file.

These are the building blocks of the L1 controller in
:mod:`repro.gpusim.unified_cache` and of the shared L2.  The tag store keeps
per-line flags needed by Snake's decoupling mechanism (§3.2): whether a line
holds prefetched or demand (L1) data, and whether it has been used — a
prefetch-space hit is "transferred" to the L1 side by flipping the flag, with
no data movement, exactly as the paper describes.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import CacheConfig


@dataclass(slots=True)
class LineState:
    """Metadata of one resident cache line."""

    addr: int
    inserted_at: int
    last_use: int
    is_prefetch: bool = False
    used: bool = False
    transferred: bool = False  # prefetch line later claimed by demand
    predicted: bool = False  # the prefetcher (re-)predicted this address
    sectors_valid: int = -1  # bitmask of fetched sectors (-1 = whole line)
    #: The owning set's OrderedDict, so touch/evict skip the XOR-fold set
    #: hash (structural back-pointer, not line state — excluded from
    #: comparisons and repr; audited by ``structural_violations``).
    home: Optional["OrderedDict[int, LineState]"] = field(
        default=None, repr=False, compare=False
    )


class SetAssocCache:
    """A set-associative, LRU tag store.

    The structure is deliberately policy-light: ``insert`` takes an explicit
    victim chosen by the caller (or picks plain LRU), so the L1 controller
    can layer Snake's decoupled-space eviction rules on top.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        # Geometry constants pulled out of the (property-computed) config:
        # ``set_index`` runs on every tag access.
        self._line_bytes = config.line_bytes
        self._set_count = config.num_sets
        # Each set is an OrderedDict addr -> LineState in LRU order
        # (oldest first).
        self._sets: List["OrderedDict[int, LineState]"] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        # Flat address -> line mirror of ``_sets``: ``lookup`` runs on every
        # demand and prefetch transaction, so it must not pay the XOR-fold
        # set hash — the mirror is maintained on the (much rarer) insert and
        # evict paths and holds exactly the union of all sets.
        self._flat: Dict[int, LineState] = {}
        # Incrementally-maintained aggregates.  ``occupancy`` and the
        # prefetched-but-unused backlog are read on every prefetch-throttle
        # decision, so they must not require walking the sets.  They change
        # in exactly three places: insert, evict and the first touch of a
        # prefetched line (which sets ``used``).
        self._occupancy = 0
        self._prefetch_unused = 0

    def set_index(self, line_addr: int) -> int:
        """XOR-folded set index (as GPU L1/L2 tag stores hash the index) so
        the power-of-two strides ubiquitous in GPU kernels do not collapse
        onto a single set."""
        line_no = line_addr // self._line_bytes
        folded = line_no ^ (line_no >> 4) ^ (line_no >> 9) ^ (line_no >> 15)
        return folded % self._set_count

    def _set_of(self, line_addr: int) -> "OrderedDict[int, LineState]":
        return self._sets[self.set_index(line_addr)]

    def lookup(self, line_addr: int) -> Optional[LineState]:
        """Return the line's state without touching LRU order."""
        return self._flat.get(line_addr)

    def touch(self, line_addr: int, now: int) -> Optional[LineState]:
        """Look up and, on hit, move to MRU position and stamp last_use."""
        state = self._flat.get(line_addr)
        if state is None:
            return None
        home = state.home
        if home is not None:
            home.move_to_end(line_addr)
        state.last_use = now
        if not state.used:
            if state.is_prefetch:
                self._prefetch_unused -= 1
            state.used = True
        return state

    def lines_in_set(self, set_idx: int) -> List[LineState]:
        """Lines of a set in LRU order (oldest first)."""
        return list(self._sets[set_idx].values())

    def set_is_full(self, set_idx: int) -> bool:
        return len(self._sets[set_idx]) >= self.config.assoc

    def count_in_set(self, set_idx: int, is_prefetch: bool) -> int:
        return sum(
            1
            for line in self._sets[set_idx].values()
            if line.is_prefetch == is_prefetch
        )

    def lru_victim(self, set_idx: int) -> Optional[LineState]:
        cache_set = self._sets[set_idx]
        if not cache_set:
            return None
        return next(iter(cache_set.values()))

    def evict(self, line_addr: int) -> Optional[LineState]:
        evicted = self._flat.pop(line_addr, None)
        if evicted is not None:
            home = evicted.home
            if home is not None:
                home.pop(line_addr, None)
            self._occupancy -= 1
            if evicted.is_prefetch and not evicted.used:
                self._prefetch_unused -= 1
        return evicted

    def insert(
        self,
        line_addr: int,
        now: int,
        is_prefetch: bool = False,
        victim: Optional[LineState] = None,
    ) -> Optional[LineState]:
        """Insert a line, evicting ``victim`` (or plain LRU) if the set is
        full.  Returns the evicted line, if any."""
        set_idx = self.set_index(line_addr)
        cache_set = self._sets[set_idx]
        if line_addr in cache_set:
            # Re-fill of a resident line: refresh metadata only.
            state = cache_set[line_addr]
            cache_set.move_to_end(line_addr)
            state.last_use = now
            return None
        evicted = None
        if len(cache_set) >= self.config.assoc:
            if victim is None:
                victim = self.lru_victim(set_idx)
            assert victim is not None
            evicted = cache_set.pop(victim.addr)
            del self._flat[victim.addr]
            self._occupancy -= 1
            if evicted.is_prefetch and not evicted.used:
                self._prefetch_unused -= 1
        state = LineState(
            addr=line_addr, inserted_at=now, last_use=now,
            is_prefetch=is_prefetch, home=cache_set,
        )
        cache_set[line_addr] = state
        self._flat[line_addr] = state
        self._occupancy += 1
        if is_prefetch:
            self._prefetch_unused += 1
        return evicted

    def structural_violations(self, label: str = "cache") -> List[str]:
        """Tag-store structural invariants (sanitizer hook): no set exceeds
        the associativity, every resident line lives in the set its address
        hashes to, and sector masks are well-formed."""
        violations: List[str] = []
        for set_idx, cache_set in enumerate(self._sets):
            if len(cache_set) > self.config.assoc:
                violations.append(
                    "%s set %d holds %d lines > assoc %d"
                    % (label, set_idx, len(cache_set), self.config.assoc)
                )
            for line in cache_set.values():
                if self.set_index(line.addr) != set_idx:
                    violations.append(
                        "%s line %#x resident in set %d but hashes to %d"
                        % (label, line.addr, set_idx, self.set_index(line.addr))
                    )
                if line.home is not cache_set:
                    violations.append(
                        "%s line %#x home pointer does not reference set %d"
                        % (label, line.addr, set_idx)
                    )
                if line.sectors_valid < -1:
                    violations.append(
                        "%s line %#x has malformed sector mask %d"
                        % (label, line.addr, line.sectors_valid)
                    )
        # The O(1) aggregates must agree with a full walk — a drifted
        # counter means some mutation path bypassed insert/evict/touch.
        walked = sum(len(s) for s in self._sets)
        if walked != self._occupancy:
            violations.append(
                "%s occupancy counter %d != walked %d"
                % (label, self._occupancy, walked)
            )
        if len(self._flat) != walked:
            violations.append(
                "%s flat mirror holds %d lines != walked %d"
                % (label, len(self._flat), walked)
            )
        walked_unused = sum(
            1
            for s in self._sets
            for line in s.values()
            if line.is_prefetch and not line.used
        )
        if walked_unused != self._prefetch_unused:
            violations.append(
                "%s prefetch-unused counter %d != walked %d"
                % (label, self._prefetch_unused, walked_unused)
            )
        return violations

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def prefetch_unused(self) -> int:
        """Resident lines still flagged prefetch and never demanded — the
        backlog the space throttle watches (O(1), counter-maintained)."""
        return self._prefetch_unused

    @property
    def num_sets(self) -> int:
        return self._set_count

    def all_lines(self) -> List[LineState]:
        return [line for s in self._sets for line in s.values()]


@dataclass(slots=True)
class MSHREntry:
    """One in-flight miss."""

    line_addr: int
    fill_time: int
    merges: int = 1
    is_prefetch: bool = False
    demand_joined: bool = False  # a demand access merged into a prefetch miss
    predicted: bool = False  # the prefetcher predicted this in-flight address
    sectors: int = -1  # sector mask the fill will deliver (-1 = whole line)
    dropped: bool = False  # chaos fault: the fill packet was lost in the NoC
    seq: int = 0  # allocation order, so retirement order matches it


class MSHR:
    """Miss Status Holding Register file with bounded merge width.

    A demand access to an in-flight line merges (the paper's *reserved*
    outcome) unless the entry already absorbed ``merge_width`` requests, in
    which case the access reservation-fails, matching §2's accounting.
    """

    def __init__(self, entries: int, merge_width: int) -> None:
        if entries < 1 or merge_width < 1:
            raise ValueError("MSHR needs at least one entry and merge slot")
        self.entries = entries
        self.merge_width = merge_width
        self._inflight: Dict[int, MSHREntry] = {}
        # Fill horizon: a min-heap of (fill_time, line_addr) lower bounds.
        # ``pop_filled`` is called on *every* L1 access, so it must answer
        # "nothing has filled yet" without walking the in-flight file.
        # Entries are pushed at allocate and again whenever a fill is
        # rescheduled earlier (demand promotion); fill times never move
        # later, so the heap head is an exact earliest-fill horizon and
        # superseded entries are skipped lazily on pop.
        self._fill_heap: List[Tuple[int, int]] = []
        # Lifetime conservation counters: every allocated entry must retire
        # exactly once, so ``allocated - released == occupancy`` at all
        # times.  The sanitizer audits the balance; a leaked or
        # double-retired entry breaks it immediately.
        self.allocated = 0
        self.released = 0

    def lookup(self, line_addr: int) -> Optional[MSHREntry]:
        return self._inflight.get(line_addr)

    @property
    def full(self) -> bool:
        return len(self._inflight) >= self.entries

    @property
    def occupancy(self) -> int:
        return len(self._inflight)

    def allocate(
        self, line_addr: int, fill_time: int, is_prefetch: bool = False
    ) -> MSHREntry:
        if self.full:
            raise RuntimeError("MSHR allocate on full file")
        if line_addr in self._inflight:
            raise RuntimeError("MSHR double allocate for line %#x" % line_addr)
        entry = MSHREntry(
            line_addr=line_addr,
            fill_time=fill_time,
            is_prefetch=is_prefetch,
            seq=self.allocated,
        )
        self._inflight[line_addr] = entry
        heapq.heappush(self._fill_heap, (fill_time, line_addr))
        self.allocated += 1
        return entry

    def reschedule(self, entry: MSHREntry, fill_time: int) -> None:
        """Move an in-flight fill *earlier* (demand promotion of a
        best-effort prefetch).  Later times are ignored — the fill horizon
        heap relies on fill times never moving backward."""
        if fill_time >= entry.fill_time:
            return
        entry.fill_time = fill_time
        heapq.heappush(self._fill_heap, (fill_time, entry.line_addr))

    def try_merge(self, line_addr: int, is_demand: bool) -> Optional[MSHREntry]:
        """Merge a request into an in-flight miss; None if merge slots are
        exhausted (caller records a reservation fail)."""
        entry = self._inflight.get(line_addr)
        if entry is None:
            return None
        if entry.merges >= self.merge_width:
            return None
        entry.merges += 1
        if is_demand and entry.is_prefetch:
            entry.demand_joined = True
        return entry

    def pop_filled(self, now: int) -> List[MSHREntry]:
        """Remove and return entries whose fill time has arrived, in
        allocation order (the order the old full-scan implementation
        produced, which downstream install/eviction decisions depend on)."""
        heap = self._fill_heap
        if not heap or heap[0][0] > now:
            return []
        filled: List[MSHREntry] = []
        while heap and heap[0][0] <= now:
            _, line_addr = heapq.heappop(heap)
            entry = self._inflight.get(line_addr)
            # Skip superseded horizon entries: the line already retired via
            # an earlier (promoted) horizon, or was re-allocated with a
            # fill still in the future.
            if entry is not None and entry.fill_time <= now:
                del self._inflight[line_addr]
                filled.append(entry)
        self.released += len(filled)
        filled.sort(key=lambda e: e.seq)
        return filled

    @property
    def fill_horizon(self) -> Optional[int]:
        """Lower bound on the earliest in-flight fill time (None when the
        horizon heap is empty) — the MSHR's next-interesting-cycle report
        under the event core's horizon contract (docs/PERFORMANCE.md)."""
        heap = self._fill_heap
        return heap[0][0] if heap else None

    def entries_inflight(self) -> List[MSHREntry]:
        """All in-flight entries (sanitizer / state-dump introspection)."""
        return list(self._inflight.values())
