"""Snake — the paper's primary contribution."""

from .head_table import HeadTable
from .snake import SnakePrefetcher
from .tail_table import TailEntry, TailTable, TrainState
from .throttle import NullThrottle, Throttle

__all__ = [
    "HeadTable",
    "NullThrottle",
    "SnakePrefetcher",
    "TailEntry",
    "TailTable",
    "Throttle",
    "TrainState",
]
