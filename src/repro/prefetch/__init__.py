"""Prefetching mechanisms and the setup table for the paper's comparison
points (§4, "Comparison Points").

:func:`build_setup` maps a mechanism name to the full machine configuration
it implies — prefetcher, storage discipline (coupled / decoupled / isolated)
and throttle — so ``simulate(kernel, prefetcher="snake-t")`` reproduces the
exact ablation the paper ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.gpusim.config import GPUConfig
from repro.gpusim.unified_cache import StorageMode

from .base import (
    CompositePrefetcher,
    Prefetcher,
    available,
    create,
    register,
)
from .bingo import BingoPrefetcher
from .cta_aware import CTAAwarePrefetcher
from .domino import DominoPrefetcher
from .ideal import IdealPrefetcher
from .inter_warp import InterWarpPrefetcher
from .intra_warp import IntraWarpPrefetcher
from .mta import MTAPrefetcher
from .tree import TreePrefetcher


@dataclass(frozen=True)
class MachineSetup:
    """Everything :class:`repro.gpusim.GPU` needs for one comparison point."""

    config: GPUConfig
    prefetcher_factory: Callable[[], Prefetcher]
    throttle_factory: Callable[[], object]
    storage_mode: StorageMode


def _snake_factory(config: GPUConfig, **flags):
    from repro.core.snake import SnakePrefetcher

    def make() -> Prefetcher:
        return SnakePrefetcher(
            head_entries=config.head_entries,
            tail_entries=config.tail_entries,
            train_threshold=config.train_threshold,
            max_chain_depth=config.max_chain_depth,
            **flags,
        )

    return make


def build_setup(
    name: str, config: GPUConfig, decoupled: bool = False, **kwargs
) -> MachineSetup:
    """Resolve a mechanism name into a full machine setup.

    ``decoupled=True`` gives any baseline mechanism Snake's decoupled storage
    (the paper's "decoupled versions of competitors" experiment in §5.2).
    """
    from repro.core.throttle import NullThrottle, Throttle

    def throttle() -> Throttle:
        return Throttle(
            interval=config.throttle_interval,
            bw_high=config.throttle_bw_high,
            bw_low=config.throttle_bw_low,
        )

    baseline_mode = StorageMode.DECOUPLED if decoupled else StorageMode.COUPLED

    if name == "cta":
        kwargs.setdefault("cta_step", config.num_sms)
    if name in ("tree", "bingo", "domino"):
        kwargs.setdefault("line_bytes", config.l1.line_bytes)
    if name in (
        "none", "intra", "inter", "mta", "cta", "tree", "ideal",
        "domino", "bingo",
    ):
        return MachineSetup(
            config=config,
            prefetcher_factory=lambda: create(name, **kwargs),
            throttle_factory=NullThrottle,
            storage_mode=baseline_mode,
        )
    if name == "snake":
        return MachineSetup(
            config, _snake_factory(config, **kwargs), throttle, StorageMode.DECOUPLED
        )
    if name == "s-snake":
        return MachineSetup(
            config,
            _snake_factory(
                config, use_intra=False, use_inter_warp=False, **kwargs
            ),
            throttle,
            StorageMode.DECOUPLED,
        )
    if name == "snake-dt":  # no decoupling, no throttling
        return MachineSetup(
            config,
            _snake_factory(config, **kwargs),
            NullThrottle,
            StorageMode.COUPLED,
        )
    if name == "snake-t":  # decoupling only, no throttling
        return MachineSetup(
            config,
            _snake_factory(config, **kwargs),
            NullThrottle,
            StorageMode.DECOUPLED,
        )
    if name == "snake+cta":
        snake_make = _snake_factory(config, **kwargs)
        return MachineSetup(
            config,
            lambda: CompositePrefetcher(
                [snake_make(), CTAAwarePrefetcher(cta_step=config.num_sms)]
            ),
            throttle,
            StorageMode.DECOUPLED,
        )
    if name == "isolated-snake":
        return MachineSetup(
            config,
            _snake_factory(config, **kwargs),
            throttle,
            StorageMode.ISOLATED,
        )
    raise ValueError(
        "unknown mechanism %r; known: %s"
        % (name, ", ".join(sorted(available() + COMPARISON_POINTS)))
    )


#: The ten comparison points of Figs 16-19 plus the baseline.
COMPARISON_POINTS = [
    "intra",
    "inter",
    "mta",
    "cta",
    "tree",
    "s-snake",
    "snake-dt",
    "snake-t",
    "snake",
    "snake+cta",
]

__all__ = [
    "BingoPrefetcher",
    "COMPARISON_POINTS",
    "DominoPrefetcher",
    "CompositePrefetcher",
    "CTAAwarePrefetcher",
    "IdealPrefetcher",
    "InterWarpPrefetcher",
    "IntraWarpPrefetcher",
    "MTAPrefetcher",
    "MachineSetup",
    "Prefetcher",
    "TreePrefetcher",
    "available",
    "build_setup",
    "create",
    "register",
]
