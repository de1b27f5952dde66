"""Building blocks for synthetic GPU kernel traces.

Each benchmark module composes warp instruction streams out of these
primitives.  The key idea: a warp's thread-0 addresses follow the benchmark's
*access structure* — fixed inter-warp offsets, per-iteration (intra-warp)
strides, inter-thread chains of strides between consecutive load PCs, and
irregular (data-dependent) components — because that structure is all a
hardware prefetcher ever sees.

Conventions:

* element size 4 bytes, fully coalesced warps use ``thread_stride=4``
  (one 128 B line per warp access);
* arrays live at well-separated bases (``array_base``) so strides never
  alias across data structures;
* PCs are byte addresses of the load instructions, unique per static load;
* ALU/SFU/BARRIER instructions come from one shared
  :class:`~repro.gpusim.trace.PlainInstrs` table per op, keyed by the PCs
  the generators' code emits, so a kernel holds one object per such
  ``(op, pc)``; loads and stores are one object each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.gpusim.trace import (
    CTA, KernelTrace, Op, PlainInstrs, WarpInstr, WarpTrace, renumber_warps,
)

ELEM = 4  #: element size in bytes
LINE = 128  #: cache line size the configs use

#: The generators' shared address-free instructions, keyed by the PCs
#: their code emits.
_ALU, _SFU, _BARRIER = map(PlainInstrs, (Op.ALU, Op.SFU, Op.BARRIER))
#: ``Op`` members bound once: a module global reads faster than ``Op.LOAD``.
_LOAD, _STORE = Op.LOAD, Op.STORE


def array_base(index: int) -> int:
    """Base address of the ``index``-th global array (64 MB apart, skewed
    by a few rows so distinct arrays spread over DRAM channels/banks
    instead of aliasing onto the same bank)."""
    return ((index + 1) << 26) + index * 2_688


@dataclass
class ChainLink:
    """One load of an inter-thread chain: a PC and its address offset from
    the chain's rolling pointer (the paper's variable stride)."""

    pc: int
    offset: int
    thread_stride: int = ELEM


@dataclass
class WarpProgram:
    """Mutable builder for one warp's instruction list."""

    warp_id: int
    instrs: List[WarpInstr] = field(default_factory=list)

    def alu(self, pc: int, count: int = 1) -> "WarpProgram":
        self.instrs.extend(map(_ALU.__getitem__, range(pc, pc + 8 * count, 8)))
        return self

    def sfu(self, pc: int) -> "WarpProgram":
        self.instrs.append(_SFU[pc])
        return self

    def load(
        self,
        pc: int,
        addr: int,
        thread_stride: int = ELEM,
        size: int = ELEM,
        divergent: bool = False,
    ) -> "WarpProgram":
        self.instrs.append(
            WarpInstr(pc, _LOAD, addr if addr > 0 else 0, thread_stride,
                      size, divergent)
        )
        return self

    def store(
        self, pc: int, addr: int, thread_stride: int = ELEM, size: int = ELEM
    ) -> "WarpProgram":
        self.instrs.append(
            WarpInstr(pc, _STORE, addr if addr > 0 else 0, thread_stride, size)
        )
        return self

    def barrier(self, pc: int) -> "WarpProgram":
        self.instrs.append(_BARRIER[pc])
        return self

    def chain_iteration(
        self,
        links: Sequence[ChainLink],
        pointer: int,
        alu_between: int = 1,
        alu_pc: int = 0x8000,
    ) -> "WarpProgram":
        """Emit one traversal of an inter-thread chain: consecutive load PCs
        whose addresses are ``pointer + link.offset`` — the deltas between
        successive links are the chain's variable strides."""
        for idx, link in enumerate(links):
            self.load(link.pc, pointer + link.offset, link.thread_stride)
            if alu_between:
                self.alu(alu_pc + 64 * idx, alu_between)
        return self

    def streaming_loop(
        self,
        pc: int,
        base: int,
        stride: int,
        iters: int,
        alu_between: int = 1,
        alu_pc: int = 0x9000,
    ) -> "WarpProgram":
        """A loop re-executing one load PC with a fixed intra-warp stride."""
        for i in range(iters):
            self.load(pc, base + i * stride)
            if alu_between:
                self.alu(alu_pc, alu_between)
        return self

    def random_loads(
        self,
        pc: int,
        region_base: int,
        region_bytes: int,
        count: int,
        rng: random.Random,
        alu_between: int = 1,
        alu_pc: int = 0xA000,
    ) -> "WarpProgram":
        """Data-dependent (unpredictable) accesses within a region — the
        irregular component no stride prefetcher can cover."""
        for _ in range(count):
            offset = rng.randrange(0, max(1, region_bytes // LINE)) * LINE
            self.load(pc, region_base + offset, divergent=True)
            if alu_between:
                self.alu(alu_pc, alu_between)
        return self

    def build(self) -> WarpTrace:
        return WarpTrace(warp_id=self.warp_id, instrs=self.instrs)


def assemble(name: str, warp_lists: List[List[WarpTrace]]) -> KernelTrace:
    """Pack per-CTA warp lists into a kernel with dense global warp ids."""
    ctas = [CTA(cta_id=i, warps=warps) for i, warps in enumerate(warp_lists)]
    renumber_warps(ctas)
    return KernelTrace(name=name, ctas=ctas)


@dataclass(frozen=True)
class GridShape:
    """Launch geometry shared by all benchmark builders."""

    num_ctas: int = 8
    warps_per_cta: int = 8

    def __post_init__(self) -> None:
        if self.num_ctas < 1 or self.warps_per_cta < 1:
            raise ValueError("grid must have at least one CTA and warp")

    @property
    def total_warps(self) -> int:
        return self.num_ctas * self.warps_per_cta

    def warp_slot(self, cta: int, warp: int) -> int:
        """Global linear index of a warp (drives inter-warp/CTA offsets)."""
        return cta * self.warps_per_cta + warp


def scaled_iters(base: int, scale: float, minimum: int = 2) -> int:
    """Iteration count scaled by the user's ``scale`` knob."""
    return max(minimum, int(round(base * scale)))
