"""Address-space helpers: cache-line arithmetic and a simple allocator.

The runtimes and applications of this reproduction operate on *modelled*
memory: data structures (task descriptors, scheduler queues, application
blocks) are laid out in a synthetic 64-bit address space so that the cache
and coherence models can reason about which accesses share cache lines.
Nothing is ever stored at these addresses — only their line-granular
behaviour matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.config import CACHE_LINE_BYTES
from repro.common.errors import MemoryModelError

__all__ = ["line_of", "line_base", "span_lines", "MemoryRegion", "AddressAllocator"]


def line_of(address: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Cache-line index containing ``address``."""
    if address < 0:
        raise MemoryModelError(f"negative address {address:#x}")
    return address // line_bytes


def line_base(address: int, line_bytes: int = CACHE_LINE_BYTES) -> int:
    """Base byte address of the cache line containing ``address``."""
    return (address // line_bytes) * line_bytes


def span_lines(address: int, size: int,
               line_bytes: int = CACHE_LINE_BYTES) -> List[int]:
    """Cache-line indices touched by a ``size``-byte access at ``address``."""
    if size <= 0:
        raise MemoryModelError(f"access size must be positive, got {size}")
    first = line_of(address, line_bytes)
    last = line_of(address + size - 1, line_bytes)
    return list(range(first, last + 1))


@dataclass(frozen=True)
class MemoryRegion:
    """A named, contiguous region of the modelled address space."""

    name: str
    base: int
    size: int
    line_bytes: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise MemoryModelError(
                f"invalid region {self.name!r}: base={self.base}, size={self.size}"
            )

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    @property
    def lines(self) -> List[int]:
        """Every cache-line index covered by the region."""
        return span_lines(self.base, self.size, self.line_bytes)

    def address_of(self, offset: int) -> int:
        """Byte address at ``offset`` within the region (bounds checked)."""
        if not 0 <= offset < self.size:
            raise MemoryModelError(
                f"offset {offset} outside region {self.name!r} of size {self.size}"
            )
        return self.base + offset

    def element(self, index: int, element_size: int) -> int:
        """Address of the ``index``-th ``element_size``-byte element."""
        return self.address_of(index * element_size)

    def contains(self, address: int) -> bool:
        """True if ``address`` lies inside the region."""
        return self.base <= address < self.end


class AddressAllocator:
    """Bump allocator carving named regions out of the modelled address space.

    Allocations are cache-line aligned by default so that independently
    allocated structures never share a line unless a caller explicitly asks
    for packed allocation — mirroring the cache-aware data packing Phentos
    performs (design goal 6, Section V-B) and letting tests construct
    deliberate false-sharing scenarios.
    """

    def __init__(self, base: int = 0x1000_0000,
                 line_bytes: int = CACHE_LINE_BYTES) -> None:
        if base < 0:
            raise MemoryModelError("allocator base must be non-negative")
        self._next = base
        self.line_bytes = line_bytes
        self._regions: List[MemoryRegion] = []

    def allocate(self, name: str, size: int, align_to_line: bool = True) -> MemoryRegion:
        """Allocate a new region of ``size`` bytes."""
        if size <= 0:
            raise MemoryModelError(f"allocation size must be positive, got {size}")
        base = self._next
        if align_to_line and base % self.line_bytes:
            base += self.line_bytes - (base % self.line_bytes)
        region = MemoryRegion(name=name, base=base, size=size,
                              line_bytes=self.line_bytes)
        self._next = region.end
        self._regions.append(region)
        return region

    def allocate_array(self, name: str, element_size: int, count: int,
                       pad_to_line: bool = False) -> MemoryRegion:
        """Allocate an array; optionally pad each element to a full line."""
        if element_size <= 0 or count <= 0:
            raise MemoryModelError("element_size and count must be positive")
        stride = element_size
        if pad_to_line and stride % self.line_bytes:
            stride += self.line_bytes - (stride % self.line_bytes)
        return self.allocate(name, stride * count)

    @property
    def regions(self) -> List[MemoryRegion]:
        """Every region allocated so far, in allocation order."""
        return list(self._regions)
