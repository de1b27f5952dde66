"""Trace model: the instruction streams executed by warps.

A workload (``repro.workloads``) compiles into a :class:`KernelTrace` — a set
of CTAs, each holding :class:`WarpTrace` instruction lists.  Memory
instructions carry a per-warp *base address* and a *thread stride*; the
coalescer expands them into cache-line requests.  The paper (§3.4) observes
that the stride between threads of a warp is consistently equal, so this
compact (base, stride) encoding loses nothing the prefetchers care about.

Building a trace is set-up cost paid before every simulation, and nearly
all of it is :class:`WarpInstr` construction.  Two rules keep it small:

* an ALU, SFU or BARRIER instruction carries no operands, so it is an
  immutable value fixed by its ``(op, pc)``; :class:`PlainInstrs` hands out
  one shared object per pc for one op, and every builder (the workload
  generators, :func:`~repro.gpusim.traceio.load_trace`) makes such
  instructions only through it;
* a LOAD or STORE keeps one object each, built by a hand-written frozen
  ``__init__`` that binds ``object.__setattr__`` once and validates inline
  instead of running a generated ``__init__`` plus ``__post_init__``.

Sharing is exact: a ``WarpInstr`` is frozen, compares and hashes by value,
and nothing in the simulator mutates one or keys anything by its identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence


class Op(enum.Enum):
    """Instruction kinds the timing model distinguishes."""

    ALU = "alu"
    SFU = "sfu"
    LOAD = "load"
    STORE = "store"
    BARRIER = "barrier"


_MEM_OPS = (Op.LOAD, Op.STORE)
#: The address-free ops: their instruction is fixed by ``(op, pc)``.
PLAIN_OPS = (Op.ALU, Op.SFU, Op.BARRIER)

_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class WarpInstr:
    """One warp-wide instruction.

    ``base_addr``/``thread_stride``/``size_bytes``/``divergent`` belong to
    LOAD/STORE only: thread *i* of the warp accesses ``base_addr + i *
    thread_stride``.  An ALU/SFU/BARRIER instruction given any of them
    raises ``ValueError``; make those through :class:`PlainInstrs`.
    """

    pc: int
    op: Op
    base_addr: int = 0
    thread_stride: int = 0
    size_bytes: int = 4
    #: threads of this warp access unrelated (data-dependent) addresses;
    #: per §3.4 such warps are excluded from prefetch training
    divergent: bool = False

    def __init__(self, pc: int, op: Op, base_addr: int = 0,
                 thread_stride: int = 0, size_bytes: int = 4,
                 divergent: bool = False) -> None:
        if pc < 0:
            raise ValueError("pc must be non-negative")
        if op in _MEM_OPS:
            if base_addr < 0:
                raise ValueError(
                    "memory instruction needs a non-negative address"
                )
        elif base_addr or thread_stride or size_bytes != 4 or divergent:
            # The trace format stores none of these for an address-free
            # op, so such a value could not round-trip.
            raise ValueError("%s instruction takes no memory operands" % op.name)
        _setattr(self, "pc", pc)
        _setattr(self, "op", op)
        _setattr(self, "base_addr", base_addr)
        _setattr(self, "thread_stride", thread_stride)
        _setattr(self, "size_bytes", size_bytes)
        _setattr(self, "divergent", divergent)

    @property
    def is_mem(self) -> bool:
        return self.op in _MEM_OPS


class PlainInstrs(Dict[int, WarpInstr]):
    """``pc -> WarpInstr`` for one address-free op: the one shared
    instruction per pc, made on first lookup (``table[pc]``).

    One table per op keeps the key a plain int (``Enum.__hash__`` runs in
    Python).  A table lives as long as its owner: the workload generators,
    keyed by their code's PCs, or one
    :func:`~repro.gpusim.traceio.load_trace` call.
    """

    #: Entries a table keeps.  Past it a lookup still returns a correct,
    #: unshared instruction, so a long-lived table cannot grow without bound.
    LIMIT = 1 << 12

    __slots__ = ("op",)

    def __init__(self, op: Op) -> None:
        if op not in PLAIN_OPS:
            raise ValueError("%s instructions carry operands; only %s are shared"
                             % (op.name, "/".join(o.name for o in PLAIN_OPS)))
        super().__init__()
        self.op = op

    def __missing__(self, pc: int) -> WarpInstr:
        instr = WarpInstr(pc, self.op)
        if len(self) < self.LIMIT:
            self[pc] = instr
        return instr


@dataclass
class WarpTrace:
    """The ordered instruction stream of one warp."""

    warp_id: int
    instrs: List[WarpInstr] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self) -> Iterator[WarpInstr]:
        return iter(self.instrs)

    def loads(self) -> List[WarpInstr]:
        return [i for i in self.instrs if i.op is Op.LOAD]

    def append(self, instr: WarpInstr) -> None:
        self.instrs.append(instr)


@dataclass
class CTA:
    """A cooperative thread array: a group of warps launched together."""

    cta_id: int
    warps: List[WarpTrace] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.warps)

    @property
    def num_instrs(self) -> int:
        return sum(len(w) for w in self.warps)


@dataclass
class KernelTrace:
    """A full kernel launch: CTAs in dispatch order, plus a label."""

    name: str
    ctas: List[CTA] = field(default_factory=list)

    @property
    def num_warps(self) -> int:
        return sum(len(c) for c in self.ctas)

    @property
    def num_instrs(self) -> int:
        return sum(c.num_instrs for c in self.ctas)

    def all_warps(self) -> List[WarpTrace]:
        return [w for c in self.ctas for w in c.warps]

    def representative_warp(self) -> WarpTrace:
        """The warp executing the most load instructions (used by the paper's
        chain analysis, Figs 9-11)."""
        warps = self.all_warps()
        if not warps:
            raise ValueError("kernel %r has no warps" % self.name)
        return max(warps, key=lambda w: len(w.loads()))


def renumber_warps(ctas: Sequence[CTA]) -> None:
    """Assign globally unique, dense warp ids across CTAs (dispatch order)."""
    next_id = 0
    for cta in ctas:
        for warp in cta.warps:
            warp.warp_id = next_id
            next_id += 1
