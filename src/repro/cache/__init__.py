"""GPU L2 cache slices and miss-status holding registers."""

from repro.cache.l2cache import (
    DIRTY_FILL,
    L2AccessResult,
    L2Cache,
    L2Outcome,
)
from repro.cache.mshr import MSHREntry, MSHRFile

__all__ = [
    "DIRTY_FILL",
    "L2AccessResult",
    "L2Cache",
    "L2Outcome",
    "MSHREntry",
    "MSHRFile",
]
