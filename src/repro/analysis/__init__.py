"""Metrics, chain analysis, per-figure experiments, claims checking and
export."""

from . import chains, claims, export, report

__all__ = ["chains", "claims", "export", "report"]
