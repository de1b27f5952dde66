"""Benchmark workloads (Table 2 of the paper) as synthetic trace builders.

Each module reproduces the *memory-access structure* of its CUDA kernel; see
DESIGN.md for the substitution rationale.  ``build_kernel(name)`` is the
public entry point::

    from repro.workloads import build_kernel, BENCHMARKS
    kernel = build_kernel("lps", scale=1.0, seed=7)
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.gpusim.trace import KernelTrace

from . import backprop, cp, histo, hotspot, lib, lps, lud, mrq, mum, nw, srad
from .extended import EXTENDED_BENCHMARKS
from .patterns import ChainLink, GridShape, WarpProgram, array_base, assemble
from .tiled_conv import build as build_tiled_conv

#: Table 2's benchmark list, in the paper's order.
BENCHMARKS: List[str] = [
    "cp",
    "lps",
    "lib",
    "mum",
    "backprop",
    "hotspot",
    "srad",
    "lud",
    "nw",
    "histo",
    "mrq",
]

_BUILDERS: Dict[str, Callable[..., KernelTrace]] = {
    **EXTENDED_BENCHMARKS,
    "cp": cp.build,
    "lps": lps.build,
    "lib": lib.build,
    "mum": mum.build,
    "backprop": backprop.build,
    "hotspot": hotspot.build,
    "srad": srad.build,
    "lud": lud.build,
    "nw": nw.build,
    "histo": histo.build,
    "mrq": mrq.build,
}

#: Full benchmark names as listed in Table 2.
FULL_NAMES: Dict[str, str] = {
    "cp": "Coulombic Potential (ISPASS)",
    "lps": "3D Laplace Solver (ISPASS)",
    "lib": "LIBOR Monte Carlo (ISPASS)",
    "mum": "MUMmerGPU (ISPASS)",
    "backprop": "Back Propagation (Rodinia)",
    "hotspot": "HotSpot (Rodinia)",
    "srad": "Speckle Reducing Anisotropic Diffusion (Rodinia)",
    "lud": "LU Decomposition (Rodinia)",
    "nw": "Needleman-Wunsch (Rodinia)",
    "histo": "Histogram (Parboil)",
    "mrq": "mri-q (Parboil)",
}


def build_kernel(name: str, **kwargs) -> KernelTrace:
    """Build the named benchmark's kernel trace.

    Accepts the Table 2 names (``BENCHMARKS``) and the extended-suite names
    (``EXTENDED_BENCHMARKS``: spmv, bfs, kmeans, stream).  Common keyword
    arguments: ``scale`` (iteration multiplier, default 1.0), ``seed`` (for
    the irregular components), ``grid`` (a
    :class:`~repro.workloads.patterns.GridShape`).  A ``scale`` that is
    not a finite number above zero raises :class:`ValueError`.
    """
    scale = kwargs.get("scale", 1.0)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and > 0, got %r" % (scale,))
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            "unknown benchmark %r; known: %s"
            % (name, ", ".join(list(BENCHMARKS) + sorted(EXTENDED_BENCHMARKS)))
        ) from None
    return builder(**kwargs)


__all__ = [
    "BENCHMARKS",
    "EXTENDED_BENCHMARKS",
    "ChainLink",
    "FULL_NAMES",
    "GridShape",
    "WarpProgram",
    "array_base",
    "assemble",
    "build_kernel",
    "build_tiled_conv",
]
