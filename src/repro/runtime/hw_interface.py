"""Instruction-level access to Picos shared by Nanos-RV and Phentos.

Both hardware-accelerated runtimes drive the same seven custom instructions;
what differs is the software bookkeeping around them.  This module contains
the common instruction sequences:

* :func:`submit_task_hw` — Submission Request followed by the Submit Three
  Packets stream of the non-zero descriptor prefix (Section IV-E.1..3),
* :func:`request_ready_task` — a single non-blocking Ready Task Request,
* :func:`fetch_ready_task` — the Fetch SW ID / Fetch Picos ID pair,
* :func:`retire_task_hw` — the blocking Retire Task instruction.

All of them retry on failure flags the way the paper describes software
should (retry, optionally doing alternative work between attempts), charging
the retry instructions to the issuing core.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Generator

from repro.common.errors import RuntimeModelError
from repro.cpu.core import Core
from repro.cpu.rocc import RoccCommand, TaskSchedulingFunct
from repro.picos.packets import TaskDescriptor, encode_nonzero_packets
from repro.runtime.task import Task
from repro.sim.engine import Delay

__all__ = [
    "FetchedTask",
    "submit_task_hw",
    "request_ready_task",
    "fetch_ready_task",
    "retire_task_hw",
]

#: Instructions of the software retry loop around a failed non-blocking
#: instruction (branch on the failure flag, reload operands, loop).
_RETRY_LOOP_INSTRUCTIONS = 4
#: Cycles to back off between repeated failures, so a stalled scheduler is
#: not hammered every cycle (software is free to choose; Phentos uses a
#: short pause).
_RETRY_BACKOFF_CYCLES = 12
_RETRY_BACKOFF = Delay(_RETRY_BACKOFF_CYCLES)
#: Give up threshold: if the hardware never accepts after this many retries
#: something is structurally wrong with the model and we fail loudly rather
#: than spin forever.
_MAX_RETRIES = 1_000_000

#: The operand-less commands, built once: commands are immutable values.
_READY_TASK_REQUEST = RoccCommand(TaskSchedulingFunct.READY_TASK_REQUEST)
_FETCH_SW_ID = RoccCommand(TaskSchedulingFunct.FETCH_SW_ID)
_FETCH_PICOS_ID = RoccCommand(TaskSchedulingFunct.FETCH_PICOS_ID)
_SUBMISSION_REQUEST = TaskSchedulingFunct.SUBMISSION_REQUEST
_SUBMIT_THREE_PACKETS = TaskSchedulingFunct.SUBMIT_THREE_PACKETS


class FetchedTask(namedtuple("FetchedTask", "sw_id picos_id")):
    """A ready task as seen by a worker after the two fetch instructions."""

    __slots__ = ()


def submit_task_hw(core: Core, task: Task, sw_id: int,
                   stall_handler=None) -> Generator:
    """Submit ``task`` to Picos through the custom instructions.

    The descriptor prefix is transmitted with Submit Three Packets, which the
    paper recommends because the non-zero packet count is always a multiple
    of three.  Returns the number of retries that were needed (useful for
    tests asserting on back-pressure behaviour).

    ``stall_handler`` is an optional generator factory run between retries of
    a rejected non-blocking instruction.  The paper's deadlock discussion
    (Section IV-C) is exactly about this: because the instructions fail fast
    instead of blocking, a thread that both produces and consumes tasks can
    switch to executing ready tasks whenever the submission path is backed
    up, which guarantees forward progress.
    """
    packets = encode_nonzero_packets(TaskDescriptor(sw_id, task.dependences))
    # Each instruction is issued once here; only a refused one enters the
    # retry loop.  The packets are 32-bit words, so two of them pack into
    # one 64-bit operand with a shift.
    retries = 0
    command = RoccCommand(_SUBMISSION_REQUEST, len(packets))
    response = yield from core.rocc(command)
    if not response.success:
        retries += yield from _retry_until_success(core, command,
                                                   stall_handler)
    for offset in range(0, len(packets), 3):
        command = RoccCommand(_SUBMIT_THREE_PACKETS,
                              (packets[offset] << 32) | packets[offset + 1],
                              packets[offset + 2])
        response = yield from core.rocc(command)
        if not response.success:
            retries += yield from _retry_until_success(core, command,
                                                       stall_handler)
    return retries


def request_ready_task(core: Core) -> Generator:
    """Issue one Ready Task Request; returns True if it was accepted."""
    response = yield from core.rocc(_READY_TASK_REQUEST)
    return response.success


def fetch_ready_task(core: Core) -> Generator:
    """Try to pop one ready task from this core's private ready queue.

    Issues Fetch SW ID and, when it succeeds, Fetch Picos ID.  Returns a
    :class:`FetchedTask` or ``None`` when the private queue is empty.
    """
    sw_response = yield from core.rocc(_FETCH_SW_ID)
    if not sw_response.success:
        return None
    picos_response = yield from core.rocc(_FETCH_PICOS_ID)
    if not picos_response.success:
        raise RuntimeModelError(
            "Fetch Picos ID failed right after a successful Fetch SW ID"
        )
    return FetchedTask(sw_response.value, picos_response.value)


def retire_task_hw(core: Core, picos_id: int) -> Generator:
    """Issue the blocking Retire Task instruction for ``picos_id``."""
    response = yield from core.rocc(
        RoccCommand(TaskSchedulingFunct.RETIRE_TASK, rs1_value=picos_id)
    )
    if response.failed:  # pragma: no cover - Retire Task cannot fail
        raise RuntimeModelError("Retire Task reported failure")
    return None


def _retry_until_success(core: Core, command: RoccCommand,
                         stall_handler=None) -> Generator:
    """Retry a refused non-blocking instruction until the hardware accepts
    it; returns the number of retries.

    Before each retry the core either runs ``stall_handler()`` (role
    switching: typically "fetch and execute one ready task") or pauses
    briefly.
    """
    retries = 0
    while True:
        retries += 1
        if retries > _MAX_RETRIES:
            raise RuntimeModelError(
                f"instruction {command.funct.name} failed {retries} times"
            )
        yield from core.execute(_RETRY_LOOP_INSTRUCTIONS)
        if stall_handler is not None:
            yield from stall_handler()
        else:
            yield _RETRY_BACKOFF
        response = yield from core.rocc(command)
        if response.success:
            return retries
