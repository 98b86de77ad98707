"""Picos task-descriptor packet encoding (Figure 3 of the paper).

Every task submitted to Picos is described by exactly 48 32-bit packets:

* a 3-packet header: task-ID (high), task-ID (low), number of dependences;
* fifteen 3-packet dependence slots: address (high), address (low),
  directionality;
* unused slots are zero packets.

A task with ``N`` dependences (0 ≤ N ≤ 15) therefore has ``3 + 3·N``
non-zero packets followed by ``(15 − N)·3`` zero packets.  In the paper's
system the runtime only transmits the non-zero prefix; the Zero Padder in
Picos Manager appends the rest (Section IV-E.1).  This module implements
both the full 48-packet encoding and the compact non-zero prefix, plus the
corresponding decoder, so the padding logic can be verified end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.errors import PicosError

__all__ = [
    "Direction",
    "TaskDependence",
    "TaskDescriptor",
    "PACKETS_PER_DESCRIPTOR",
    "MAX_DEPENDENCES",
    "HEADER_PACKETS",
    "PACKETS_PER_DEPENDENCE",
    "nonzero_packet_count",
    "zero_packet_count",
    "encode_descriptor",
    "encode_nonzero_packets",
    "decode_descriptor",
]

#: Total packets in a Picos task descriptor.
PACKETS_PER_DESCRIPTOR = 48
#: Maximum number of monitored pointer parameters per task.
MAX_DEPENDENCES = 15
#: Packets in the descriptor header (task-ID high/low, #deps).
HEADER_PACKETS = 3
#: Packets per dependence slot (address high/low, directionality).
PACKETS_PER_DEPENDENCE = 3

_WORD_MASK = (1 << 32) - 1


class Direction(enum.IntEnum):
    """Directionality of a monitored pointer parameter."""

    IN = 1
    OUT = 2
    INOUT = 3

    @property
    def reads(self) -> bool:
        """True when the task reads through this parameter."""
        return self in (Direction.IN, Direction.INOUT)

    @property
    def writes(self) -> bool:
        """True when the task writes through this parameter."""
        return self in (Direction.OUT, Direction.INOUT)


@dataclass(frozen=True)
class TaskDependence:
    """One monitored pointer parameter: a 64-bit address and a direction."""

    address: int
    direction: Direction

    def __post_init__(self) -> None:
        if not 0 <= self.address < (1 << 64):
            raise PicosError(f"dependence address is not 64-bit: {self.address:#x}")
        if not isinstance(self.direction, Direction):
            raise PicosError(f"invalid direction: {self.direction!r}")


@dataclass(frozen=True)
class TaskDescriptor:
    """The software-visible description of one task submitted to Picos."""

    sw_id: int
    dependences: Tuple[TaskDependence, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.sw_id < (1 << 64):
            raise PicosError(f"sw_id is not a 64-bit value: {self.sw_id}")
        if len(self.dependences) > MAX_DEPENDENCES:
            raise PicosError(
                f"Picos supports at most {MAX_DEPENDENCES} dependences per task, "
                f"got {len(self.dependences)}"
            )
        if not isinstance(self.dependences, tuple):
            object.__setattr__(self, "dependences", tuple(self.dependences))

    @property
    def num_dependences(self) -> int:
        """Number of monitored pointer parameters."""
        return len(self.dependences)

    @property
    def nonzero_packets(self) -> int:
        """Packets the runtime must transmit (header + used slots)."""
        return nonzero_packet_count(self.num_dependences)


def nonzero_packet_count(num_dependences: int) -> int:
    """Non-zero packets of a descriptor with ``num_dependences`` deps."""
    _check_dep_count(num_dependences)
    return HEADER_PACKETS + PACKETS_PER_DEPENDENCE * num_dependences


def zero_packet_count(num_dependences: int) -> int:
    """Zero packets padding a descriptor with ``num_dependences`` deps."""
    _check_dep_count(num_dependences)
    return (MAX_DEPENDENCES - num_dependences) * PACKETS_PER_DEPENDENCE


def encode_nonzero_packets(descriptor: TaskDescriptor) -> List[int]:
    """Encode only the non-zero prefix the runtime transmits."""
    packets = [
        (descriptor.sw_id >> 32) & _WORD_MASK,
        descriptor.sw_id & _WORD_MASK,
        descriptor.num_dependences & _WORD_MASK,
    ]
    for dependence in descriptor.dependences:
        packets.append((dependence.address >> 32) & _WORD_MASK)
        packets.append(dependence.address & _WORD_MASK)
        packets.append(int(dependence.direction) & _WORD_MASK)
    return packets


def encode_descriptor(descriptor: TaskDescriptor) -> List[int]:
    """Encode the full 48-packet sequence Picos expects."""
    packets = encode_nonzero_packets(descriptor)
    packets.extend([0] * zero_packet_count(descriptor.num_dependences))
    return packets


def decode_descriptor(packets: Sequence[int]) -> TaskDescriptor:
    """Decode a full 48-packet sequence back into a :class:`TaskDescriptor`.

    Raises :class:`~repro.common.errors.PicosError` if the sequence has the
    wrong length, an out-of-range dependence count, an invalid
    directionality code, or non-zero padding where zeros are required.
    """
    if len(packets) != PACKETS_PER_DESCRIPTOR:
        raise PicosError(
            f"descriptor must be {PACKETS_PER_DESCRIPTOR} packets, got {len(packets)}"
        )
    for index, packet in enumerate(packets):
        if not 0 <= packet <= _WORD_MASK:
            raise PicosError(f"packet {index} is not a 32-bit word: {packet!r}")
    sw_id = (packets[0] << 32) | packets[1]
    num_deps = packets[2]
    if num_deps > MAX_DEPENDENCES:
        raise PicosError(f"descriptor claims {num_deps} dependences (max 15)")
    dependences = []
    for slot in range(num_deps):
        base = HEADER_PACKETS + slot * PACKETS_PER_DEPENDENCE
        address = (packets[base] << 32) | packets[base + 1]
        direction_code = packets[base + 2]
        try:
            direction = Direction(direction_code)
        except ValueError as exc:
            raise PicosError(
                f"invalid directionality code {direction_code} in slot {slot}"
            ) from exc
        dependences.append(TaskDependence(address, direction))
    padding_start = HEADER_PACKETS + num_deps * PACKETS_PER_DEPENDENCE
    if any(packets[index] != 0 for index in range(padding_start,
                                                  PACKETS_PER_DESCRIPTOR)):
        raise PicosError("non-zero packet found in the zero-padding region")
    return TaskDescriptor(sw_id=sw_id, dependences=tuple(dependences))


def _check_dep_count(num_dependences: int) -> None:
    if not 0 <= num_dependences <= MAX_DEPENDENCES:
        raise PicosError(
            f"dependence count must be between 0 and {MAX_DEPENDENCES}, "
            f"got {num_dependences}"
        )
