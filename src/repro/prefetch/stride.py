"""Shared stride-detection helpers used by the fixed-stride baselines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional


@dataclass
class StrideTracker:
    """Classic two-delta stride detector: remembers the last address and
    stride and counts consecutive confirmations."""

    last_addr: Optional[int] = None
    stride: Optional[int] = None
    confirmations: int = 0

    def update(self, addr: int) -> Optional[int]:
        """Feed an address; returns the stride once it has been confirmed at
        least once (two equal deltas in a row), else None."""
        confirmed = None
        if self.last_addr is not None:
            delta = addr - self.last_addr
            if delta != 0 and delta == self.stride:
                self.confirmations += 1
                confirmed = delta
            else:
                self.stride = delta if delta != 0 else None
                self.confirmations = 0
        self.last_addr = addr
        return confirmed


@dataclass
class ConsensusTracker:
    """Detects a stride agreed on by a minimum number of distinct voters
    (warps or CTAs) — the paper's three-warp promotion rule."""

    threshold: int = 3

    def __post_init__(self) -> None:
        self._votes: dict = {}  # stride -> set of voter ids
        self.trained_stride: Optional[int] = None

    def vote(self, voter: int, stride: int) -> Optional[int]:
        """Register that ``voter`` observed ``stride``.  Returns the trained
        stride once ``threshold`` distinct voters agree."""
        if stride == 0:
            return self.trained_stride
        voters = self._votes.get(stride)
        if voters is None:
            voters = self._votes[stride] = set()
        voters.add(voter)
        if len(voters) >= self.threshold:
            self.trained_stride = stride
        return self.trained_stride

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe, deterministic image of the vote state (vote map in
        insertion order, voter sets sorted)."""
        return {
            "threshold": self.threshold,
            "trained_stride": self.trained_stride,
            "votes": [
                [stride, sorted(voters)]
                for stride, voters in self._votes.items()
            ],
        }

    @classmethod
    def restore(cls, data: Mapping[str, Any]) -> "ConsensusTracker":
        """Rebuild a tracker from :meth:`snapshot` output."""
        tracker = cls(threshold=int(data["threshold"]))
        tracker.trained_stride = (
            None if data["trained_stride"] is None
            else int(data["trained_stride"])
        )
        for stride, voters in data["votes"]:
            tracker._votes[int(stride)] = {int(v) for v in voters}
        return tracker
