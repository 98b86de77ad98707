"""RoCC custom-instruction format and the task-scheduling ISA extension.

Figure 1 of the paper shows the RoCC instruction encoding used by Rocket
Core custom accelerators::

    funct7 | rs2 | rs1 | xd | xs1 | xs2 | rd | opcode
       7   |  5  |  5  |  1 |  1  |  1  |  5 |    7

This module provides a faithful encoder/decoder for that 32-bit format and
defines the seven task-scheduling instructions of Table I as ``funct7``
values on the ``custom0`` opcode.  The encoding layer is exercised by the
Picos Delegate model and by unit/property tests; the runtimes interact with
the delegate through :class:`RoccCommand` objects, which is what a real
Rocket core would hand to its RoCC accelerator after decoding.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass

from repro.common.errors import ProtocolError

__all__ = [
    "CUSTOM0",
    "CUSTOM1",
    "CUSTOM2",
    "CUSTOM3",
    "TaskSchedulingFunct",
    "RoccInstruction",
    "RoccCommand",
    "RoccResponse",
    "FAILURE_FLAG",
]

#: The four custom opcodes reserved by RISC-V for RoCC accelerators.
CUSTOM0 = 0b0001011
CUSTOM1 = 0b0101011
CUSTOM2 = 0b1011011
CUSTOM3 = 0b1111011

_CUSTOM_OPCODES = (CUSTOM0, CUSTOM1, CUSTOM2, CUSTOM3)

#: Value returned in ``rd`` by non-blocking instructions that could not be
#: satisfied (queue full / empty).  Software tests this flag and retries,
#: sleeps, or switches roles — the paper's deadlock-avoidance mechanism.
FAILURE_FLAG = (1 << 64) - 1

#: Register operands are 64-bit values below this limit.
_REGISTER_LIMIT = 1 << 64


class TaskSchedulingFunct(enum.IntEnum):
    """``funct7`` values of the custom task-scheduling instructions (Table I)."""

    SUBMISSION_REQUEST = 0x01
    SUBMIT_PACKET = 0x02
    SUBMIT_THREE_PACKETS = 0x03
    READY_TASK_REQUEST = 0x04
    FETCH_SW_ID = 0x05
    FETCH_PICOS_ID = 0x06
    RETIRE_TASK = 0x07

    @property
    def is_blocking(self) -> bool:
        """Only Retire Task is blocking (Section IV-B)."""
        return self is TaskSchedulingFunct.RETIRE_TASK

    @property
    def uses_rs1(self) -> bool:
        """Whether the instruction carries a first source operand."""
        return self in (
            TaskSchedulingFunct.SUBMISSION_REQUEST,
            TaskSchedulingFunct.SUBMIT_PACKET,
            TaskSchedulingFunct.SUBMIT_THREE_PACKETS,
            TaskSchedulingFunct.RETIRE_TASK,
        )

    @property
    def uses_rs2(self) -> bool:
        """Whether the instruction carries a second source operand."""
        return self is TaskSchedulingFunct.SUBMIT_THREE_PACKETS

    @property
    def uses_rd(self) -> bool:
        """Whether the instruction writes a destination register."""
        return self in (
            TaskSchedulingFunct.SUBMISSION_REQUEST,
            TaskSchedulingFunct.SUBMIT_PACKET,
            TaskSchedulingFunct.SUBMIT_THREE_PACKETS,
            TaskSchedulingFunct.READY_TASK_REQUEST,
            TaskSchedulingFunct.FETCH_SW_ID,
            TaskSchedulingFunct.FETCH_PICOS_ID,
        )


@dataclass(frozen=True)
class RoccInstruction:
    """One decoded 32-bit RoCC instruction (Figure 1 of the paper)."""

    funct7: int
    rs2: int
    rs1: int
    xd: bool
    xs1: bool
    xs2: bool
    rd: int
    opcode: int = CUSTOM0

    def __post_init__(self) -> None:
        if not 0 <= self.funct7 < 128:
            raise ProtocolError(f"funct7 out of range: {self.funct7}")
        for name, reg in (("rs1", self.rs1), ("rs2", self.rs2), ("rd", self.rd)):
            if not 0 <= reg < 32:
                raise ProtocolError(f"{name} register index out of range: {reg}")
        if self.opcode not in _CUSTOM_OPCODES:
            raise ProtocolError(f"opcode {self.opcode:#09b} is not a custom opcode")

    def encode(self) -> int:
        """Encode to the 32-bit instruction word."""
        word = self.opcode
        word |= self.rd << 7
        word |= (1 if self.xs2 else 0) << 12
        word |= (1 if self.xs1 else 0) << 13
        word |= (1 if self.xd else 0) << 14
        word |= self.rs1 << 15
        word |= self.rs2 << 20
        word |= self.funct7 << 25
        return word

    @classmethod
    def decode(cls, word: int) -> "RoccInstruction":
        """Decode a 32-bit instruction word."""
        if not 0 <= word < (1 << 32):
            raise ProtocolError(f"instruction word out of range: {word:#x}")
        opcode = word & 0x7F
        if opcode not in _CUSTOM_OPCODES:
            raise ProtocolError(
                f"opcode {opcode:#09b} is not a RoCC custom opcode"
            )
        return cls(
            funct7=(word >> 25) & 0x7F,
            rs2=(word >> 20) & 0x1F,
            rs1=(word >> 15) & 0x1F,
            xd=bool((word >> 14) & 0x1),
            xs1=bool((word >> 13) & 0x1),
            xs2=bool((word >> 12) & 0x1),
            rd=(word >> 7) & 0x1F,
            opcode=opcode,
        )

    @classmethod
    def for_funct(cls, funct: TaskSchedulingFunct, rs1: int = 1, rs2: int = 2,
                  rd: int = 3) -> "RoccInstruction":
        """Build the canonical encoding of one task-scheduling instruction."""
        return cls(
            funct7=int(funct),
            rs2=rs2 if funct.uses_rs2 else 0,
            rs1=rs1 if funct.uses_rs1 else 0,
            xd=funct.uses_rd,
            xs1=funct.uses_rs1,
            xs2=funct.uses_rs2,
            rd=rd if funct.uses_rd else 0,
        )


class RoccCommand(namedtuple("RoccCommand", "funct rs1_value rs2_value")):
    """What the core hands to its RoCC accelerator after decode.

    ``rs1_value`` and ``rs2_value`` are the 64-bit register *contents* (the
    encoding above only names register indices); the Picos Delegate consumes
    these values directly.
    """

    __slots__ = ()

    def __new__(cls, funct: TaskSchedulingFunct, rs1_value: int = 0,
                rs2_value: int = 0) -> "RoccCommand":
        if not 0 <= rs1_value < _REGISTER_LIMIT:
            raise ProtocolError(f"rs1_value is not a 64-bit value: {rs1_value:#x}")
        if not 0 <= rs2_value < _REGISTER_LIMIT:
            raise ProtocolError(f"rs2_value is not a 64-bit value: {rs2_value:#x}")
        return tuple.__new__(cls, (funct, rs1_value, rs2_value))


class RoccResponse(namedtuple("RoccResponse", "value success",
                              defaults=(0, True))):
    """Accelerator response: destination-register value plus success flag."""

    __slots__ = ()

    @property
    def failed(self) -> bool:
        """True when the non-blocking instruction reported failure."""
        return not self.success

    @classmethod
    def failure(cls) -> "RoccResponse":
        """The canonical failure response (rd = all-ones flag value).

        Responses are immutable, so every failure shares one instance.
        """
        return _FAILURE


_FAILURE = RoccResponse(value=FAILURE_FLAG, success=False)
