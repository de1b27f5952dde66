"""Every generator's trace, pinned byte for byte.

Each digest is the sha256 of the generator's ``traceio`` encoding (the
file :func:`~repro.gpusim.traceio.save_trace` writes) at seed 1.  A change
to how traces are built (say, a faster constructor or shared instruction
objects) must leave every digest as it is; a change to what a workload
*is* updates its digest on purpose, in the same commit.  ``lps`` at scale
1.0 is the kernel perfbench's quickstart workloads simulate.
"""

import hashlib

import pytest

from repro.gpusim.traceio import save_trace
from repro.workloads import (
    BENCHMARKS,
    EXTENDED_BENCHMARKS,
    build_kernel,
    build_tiled_conv,
)

#: (builder name, scale) -> sha256 of the saved trace, seed 1
DIGESTS = {
    ("cp", 0.1): "dce8d9623a27ffc945f90dd9adca52323223e190165720911d8c95279ddcbbb8",
    ("lps", 0.1): "243b9d16dd16d0ea5d413276545bd99d764e9581ba1281604b07e94b65b03542",
    ("lib", 0.1): "864c8987f02f36492dce75fbfaaa9273cfe386ff75942b66171b0bea0e5dc87c",
    ("mum", 0.1): "28e94e537ca16de7268efee4bab7a4dcf1d45ab4db4595fe9abd6206edd225a1",
    ("backprop", 0.1): "89951887b514009d4644ed78b29a235368abcb641ec8ce34e14f4ed0e1d39802",
    ("hotspot", 0.1): "d344cc5874b902380fe084298564462847602cdd5ef5da02ba8327f4c7d31d3a",
    ("srad", 0.1): "acf7fd55a192d19142082ae570efc3730d5c08d480669aa02fa454b2086228b6",
    ("lud", 0.1): "d0d7c97843c525752fd9c67d7799b0177ba1818dabf8ac70a88983da9fa22410",
    ("nw", 0.1): "de4b19541496d1dec42422fb019432c718ff8cf06b1aa80d44ca41c0b785a213",
    ("histo", 0.1): "2ff8016768d58a93c3a2665971ca285991f85548c367c40bd002089eca44f0b0",
    ("mrq", 0.1): "1cf252e72b7d0bbb1b3dbb86715d18ec666a51433703f045c8ab787d621c8ff8",
    ("bfs", 0.1): "f091896dd40342376a5650e9aa80a35da25c384f5d9da81ad5fd9e7290e34157",
    ("kmeans", 0.1): "ee8bf50481aefd2ab8216312b0b027728febe782201fa57055b6e249b9d20b3f",
    ("spmv", 0.1): "c6479a10d6bca11f6a0b635f3bcdefb9825b13384ba6eed6e33f0f4000bb9008",
    ("stream", 0.1): "20699d0ce1700422341c0d52a283678c8ceeaca0213dfa938118a833644741f5",
    ("tiled_conv", 0.1): "ee2d4baf721a78223c5fef0b4c06dbcaa76b4b5480c928edb972c2c576fde27a",
    ("lps", 1.0): "771c80ddb9f11ef1edb085b834463583f6dfdb8f2e72e9a0676bfac044d1d713",
}


def _build(name, scale):
    if name == "tiled_conv":
        return build_tiled_conv(scale=scale, seed=1)
    return build_kernel(name, scale=scale, seed=1)


def test_every_generator_is_pinned():
    names = {name for name, _ in DIGESTS}
    assert names == set(BENCHMARKS) | set(EXTENDED_BENCHMARKS) | {"tiled_conv"}


@pytest.mark.parametrize("name, scale", sorted(DIGESTS))
def test_trace_digest(tmp_path, name, scale):
    path = save_trace(_build(name, scale), tmp_path / "k.trace")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name, scale]


def plain_instrs_by_key(kernel):
    """``{(op, pc): instr}`` of a kernel's address-free instructions, after
    checking that each key has one object and each memory instruction its
    own."""
    shared = {}
    mem_ids = set()
    for instr in (i for w in kernel.all_warps() for i in w.instrs):
        if instr.is_mem:
            assert id(instr) not in mem_ids
            mem_ids.add(id(instr))
        else:
            assert shared.setdefault((instr.op, instr.pc), instr) is instr
    return shared


@pytest.mark.parametrize("name", sorted({name for name, _ in DIGESTS}))
def test_plain_instrs_shared_memory_instrs_not(name):
    assert plain_instrs_by_key(_build(name, 0.1))
