"""Kernel-trace serialization.

A :class:`~repro.gpusim.trace.KernelTrace` can be saved to (and loaded
from) a compact JSON-lines format, so traces can be generated once, kept
under version control, or produced by external tools (e.g. converted from
an Accel-Sim SASS trace) and replayed through this simulator.

Format (one JSON object per line):

* header line: ``{"kernel": name, "version": 1}``
* CTA line:    ``{"cta": id}`` — opens a CTA; warps follow
* warp line:   ``{"warp": id, "instrs": [[pc, op, base, stride, size, div], ...]}``

Memory operands are omitted for non-memory ops, keeping files small: a
LOAD/STORE record has exactly the 6 fields and an ALU/SFU/BARRIER record
exactly the 2, and ``div`` is 0 or 1.  Any other shape is rejected, so
every accepted file round-trips.  Each :func:`load_trace` call shares
one :class:`~repro.gpusim.trace.PlainInstrs` object per address-free
``(op, pc)``, in a table that lives only for that call.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .trace import CTA, PLAIN_OPS, KernelTrace, Op, PlainInstrs, WarpInstr, WarpTrace

FORMAT_VERSION = 1

_CODE_OP = {op.value: op for op in Op}


class TraceFormatError(ValueError):
    """A trace file is malformed (truncated, corrupt, or wrong schema).

    Carries the byte ``offset`` of the offending line and its ``record_index``
    (0 = header) so the broken spot can be inspected directly, instead of an
    opaque ``struct.error`` / ``IndexError`` from deep inside decoding.
    Subclasses ``ValueError`` for compatibility with pre-existing callers.
    """

    def __init__(self, message: str, *, path: Union[str, Path, None] = None,
                 offset: int = 0, record_index: int = 0) -> None:
        self.path = str(path) if path is not None else None
        self.offset = offset
        self.record_index = record_index
        where = "record %d at byte offset %d" % (record_index, offset)
        if self.path:
            where = "%s, %s" % (self.path, where)
        super().__init__("%s (%s)" % (message, where))


def _encode_instr(instr: WarpInstr) -> list:
    if instr.is_mem:
        return [
            instr.pc,
            instr.op.value,
            instr.base_addr,
            instr.thread_stride,
            instr.size_bytes,
            int(instr.divergent),
        ]
    return [instr.pc, instr.op.value]


def _require_int(value: object, what: str, minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> int:
    """Validate one numeric trace field.

    External converters feed this loader, so every arithmetic-bearing
    field must be a plain JSON integer: booleans (a Python ``int``
    subclass), floats — including the ``NaN``/``Infinity`` literals
    Python's ``json`` accepts by default — and strings are all rejected
    here rather than poisoning address arithmetic deep in the simulator.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    if minimum is not None and value < minimum:
        raise ValueError("%s must be >= %d, got %d" % (what, minimum, value))
    if maximum is not None and value > maximum:
        raise ValueError("%s must be <= %d, got %d" % (what, maximum, value))
    return value


#: Address-space bound for external traces: beyond 2^64 a record is
#: corrupt, not a big kernel.
_MAX_ADDR = (1 << 64) - 1


def _decode_instr(record: list, plain: Dict[str, PlainInstrs]) -> WarpInstr:
    """One instruction record; ``plain`` maps an address-free opcode to the
    calling :func:`load_trace`'s table of shared instructions."""
    if not isinstance(record, list) or len(record) not in (2, 6):
        raise ValueError(
            "instruction record must have 2 or 6 fields, got %r" % (record,)
        )
    opcode = record[1]
    if isinstance(opcode, bool) or opcode not in _CODE_OP:
        raise ValueError("unknown opcode %r" % (opcode,))
    table = plain.get(opcode)
    if len(record) == 2:
        if table is None:
            raise ValueError(
                "%s record needs 6 fields (pc, op, base, stride, size, "
                "divergent), got %r" % (opcode, record)
            )
        return table[_require_int(record[0], "pc", minimum=0)]
    if table is not None:
        raise ValueError(
            "%s record takes 2 fields (pc, op), got %r" % (opcode, record)
        )
    pc, op, base, stride, size, divergent = record
    return WarpInstr(
        pc=_require_int(pc, "pc", minimum=0),
        op=_CODE_OP[op],
        base_addr=_require_int(base, "base_addr", minimum=0, maximum=_MAX_ADDR),
        thread_stride=_require_int(stride, "thread_stride",
                                   minimum=-_MAX_ADDR, maximum=_MAX_ADDR),
        size_bytes=_require_int(size, "size_bytes", minimum=1),
        divergent=bool(_require_int(divergent, "divergent", minimum=0,
                                    maximum=1)),
    )


def save_trace(kernel: KernelTrace, path: Union[str, Path]) -> Path:
    """Write a kernel trace as JSON lines; returns the path written."""
    path = Path(path)
    with path.open("w") as handle:
        handle.write(
            json.dumps({"kernel": kernel.name, "version": FORMAT_VERSION}) + "\n"
        )
        for cta in kernel.ctas:
            handle.write(json.dumps({"cta": cta.cta_id}) + "\n")
            for warp in cta.warps:
                record = {
                    "warp": warp.warp_id,
                    "instrs": [_encode_instr(i) for i in warp.instrs],
                }
                handle.write(json.dumps(record) + "\n")
    return path


def load_trace(path: Union[str, Path]) -> KernelTrace:
    """Read a kernel trace written by :func:`save_trace`.

    Truncated or corrupt files raise :class:`TraceFormatError` pinpointing
    the byte offset and record index of the damage.
    """
    path = Path(path)
    raw = path.read_bytes()

    def fail(message: str, offset: int, index: int) -> "TraceFormatError":
        return TraceFormatError(
            message, path=path, offset=offset, record_index=index
        )

    offset = 0
    kernel: KernelTrace = None  # set by the header record
    plain = {op.value: PlainInstrs(op) for op in PLAIN_OPS}
    current: List[WarpTrace] = []
    for index, line in enumerate(raw.split(b"\n")):
        if not line.strip():
            offset += len(line) + 1
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise fail(
                "malformed JSON line (truncated file?): %s" % exc, offset, index
            ) from exc
        if not isinstance(record, dict):
            raise fail("trace record is not an object: %r" % (record,), offset, index)

        if kernel is None:
            if "kernel" not in record:
                raise fail("first record is not a trace header", offset, index)
            if record.get("version") != FORMAT_VERSION:
                raise fail(
                    "unsupported trace version %r (expected %d)"
                    % (record.get("version"), FORMAT_VERSION),
                    offset, index,
                )
            if not isinstance(record["kernel"], str):
                raise fail(
                    "kernel name must be a string, got %r" % (record["kernel"],),
                    offset, index,
                )
            kernel = KernelTrace(name=record["kernel"])
        elif "cta" in record:
            try:
                cta = CTA(cta_id=_require_int(record["cta"], "cta id", minimum=0))
            except ValueError as exc:
                raise fail("corrupt CTA record: %s" % exc, offset, index) from exc
            kernel.ctas.append(cta)
            current = cta.warps
        elif "warp" in record:
            if not kernel.ctas:
                raise fail("warp record before any CTA record", offset, index)
            instrs = record.get("instrs")
            if not isinstance(instrs, list):
                raise fail("warp record carries no instruction list", offset, index)
            try:
                warp_id = _require_int(record["warp"], "warp id", minimum=0)
                decoded = [_decode_instr(r, plain) for r in instrs]
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                raise fail("corrupt instruction record: %s" % exc, offset, index) from exc
            current.append(WarpTrace(warp_id=warp_id, instrs=decoded))
        else:
            raise fail("unrecognized trace record: %r" % record, offset, index)
        offset += len(line) + 1

    if kernel is None:
        raise fail("empty trace file (no header record)", 0, 0)
    return kernel
