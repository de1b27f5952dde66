"""Prefetcher interface.

A prefetcher lives next to an SM's L1.  The SM calls :meth:`Prefetcher.observe`
with the load's fields as plain ints each time a warp issues a demand load
(before the access is serviced) and gets back a list of ``(base_addr, depth)``
pairs: *base* (first-thread) addresses to prefetch, each with its chain
distance (>= 1) from the triggering access.  No pair has a negative address.
The SM expands each base address into cache lines using the triggering
instruction's thread stride, checks the throttle, and pushes the lines into
the L1's prefetch path.

Prefetchers that model the paper's Ideal oracle set ``uses_magic`` so the SM
routes their requests to the zero-latency, infinite-capacity magic fill path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.obs.events import NULL_BUS


class Prefetcher:
    """Base class: the null prefetcher (baseline GPU)."""

    name = "none"
    uses_magic = False
    #: Telemetry bus (repro.obs) — the GPU overwrites these per instance so
    #: mechanism-internal events reach the run's sinks; standalone
    #: prefetchers emit into the disabled NULL_BUS.
    obs = NULL_BUS
    obs_sm_id = -1

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        """Digest one warp-level demand load; return its ``(base_addr,
        depth)`` prefetch pairs.  ``app_id`` names the concurrently running
        application that issued it, ``divergent`` marks a load whose threads
        share no uniform stride, ``now`` is the issue cycle and ``cta_id``
        the issuing CTA."""
        return []

    @property
    def trained(self) -> bool:
        """Whether training completed (gates Snake's 50 % demand-space cap;
        mechanisms without a training phase report True)."""
        return True

    def table_accesses(self) -> int:
        """Metadata-table lookups performed so far (energy accounting)."""
        return 0


class CompositePrefetcher(Prefetcher):
    """Union of several mechanisms: each access is shown to every part in
    order, and the first pair seen for a base address wins."""

    name = "composite"

    def __init__(self, parts: List[Prefetcher]) -> None:
        if not parts:
            raise ValueError("composite needs at least one part")
        self.parts = parts

    def observe(
        self, warp_id: int, pc: int, base_addr: int, app_id: int = 0,
        divergent: bool = False, now: int = 0, cta_id: int = 0,
    ) -> List[Tuple[int, int]]:
        seen = set()
        unique: List[Tuple[int, int]] = []
        for part in self.parts:
            for pair in part.observe(
                warp_id, pc, base_addr, app_id, divergent, now, cta_id
            ):
                if pair[0] not in seen:
                    seen.add(pair[0])
                    unique.append(pair)
        return unique

    def set_depth_limit(self, limit: int) -> None:
        """Throttle hook (§3.2): forward the chain-depth cap to every part
        that takes one (a Snake part); parts without a chain walk have
        nothing to cap."""
        for part in self.parts:
            set_limit = getattr(part, "set_depth_limit", None)
            if set_limit is not None:
                set_limit(limit)

    def tables(self) -> List[Tuple[int, Any, Any]]:
        """Every part's ``(app_id, head, tail)`` tables, in part order, so
        the sanitizer and the fault injector reach a Snake inside the
        union."""
        rows: List[Tuple[int, Any, Any]] = []
        for part in self.parts:
            tables = getattr(part, "tables", None)
            if tables is not None:
                rows.extend(tables())
        return rows

    @property
    def trained(self) -> bool:
        return any(part.trained for part in self.parts)

    def table_accesses(self) -> int:
        return sum(part.table_accesses() for part in self.parts)


_REGISTRY: Dict[str, Callable[..., Prefetcher]] = {}


def register(name: str):
    """Class decorator registering a prefetcher under ``name``."""

    def deco(cls):
        if name in _REGISTRY:
            raise ValueError("prefetcher %r already registered" % name)
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def create(name: str, **kwargs) -> Prefetcher:
    """Instantiate a registered prefetcher by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown prefetcher %r; known: %s" % (name, ", ".join(sorted(_REGISTRY)))
        ) from None
    return factory(**kwargs)


def available() -> List[str]:
    return sorted(_REGISTRY)


register("none")(Prefetcher)
