"""Memory hierarchy substrate: addresses, MESI coherence, shared variables."""

from repro.memory.address import (
    AddressAllocator,
    MemoryRegion,
    line_base,
    line_of,
    span_lines,
)
from repro.memory.hierarchy import (
    MemorySystem,
    SharedCounter,
    SoftwareMutex,
)
from repro.memory.mesi import AccessType, CoherenceDirectory, LineState

__all__ = [
    "AddressAllocator",
    "MemoryRegion",
    "line_base",
    "line_of",
    "span_lines",
    "MemorySystem",
    "SharedCounter",
    "SoftwareMutex",
    "AccessType",
    "CoherenceDirectory",
    "LineState",
]
