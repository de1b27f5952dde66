"""Many-Thread-Aware prefetcher (MTA; Lee et al. [29]).

The paper's strongest-coverage prior: the union of the intra-warp and
inter-warp mechanisms.  Requests are merged and de-duplicated per trigger
by :class:`CompositePrefetcher`, intra-warp first.
"""

from __future__ import annotations

from .base import CompositePrefetcher, register
from .inter_warp import InterWarpPrefetcher
from .intra_warp import IntraWarpPrefetcher


@register("mta")
class MTAPrefetcher(CompositePrefetcher):
    """Intra-warp + inter-warp combined."""

    def __init__(self, degree: int = 2, train_threshold: int = 3) -> None:
        super().__init__([
            IntraWarpPrefetcher(degree=degree),
            InterWarpPrefetcher(degree=degree, train_threshold=train_threshold),
        ])
