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
    SharedFlag,
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
    "SharedFlag",
    "SoftwareMutex",
    "AccessType",
    "CoherenceDirectory",
    "LineState",
]
