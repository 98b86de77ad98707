"""The per-event value records: checks, immutability, equality, pickling.

``RoccCommand``, ``RoccResponse``, ``TaskDependence``, ``TaskDescriptor``,
``ReadyTask`` and ``FetchedTask`` are built once per instruction,
dependence or ready task, so they are cheap immutable tuples; so is the
per-packet reference's ``ReadyPacket``, built three times per ready task.
These tests pin what they promise whatever they are built from.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro.common.errors import PicosError, ProtocolError
from repro.cpu.rocc import FAILURE_FLAG, RoccCommand, RoccResponse, \
    TaskSchedulingFunct
from repro.picos.device import ReadyTask
from repro.picos.packets import Direction, TaskDependence, TaskDescriptor
from repro.runtime.hw_interface import FetchedTask
from tests.helpers import ReadyPacket

SUBMIT = TaskSchedulingFunct.SUBMIT_THREE_PACKETS
DEP = TaskDependence(0x40, Direction.IN)

#: (record class, positional fields) of one valid value per record.
VALID = [
    (RoccCommand, (SUBMIT, (1 << 64) - 1, 7)),
    (RoccResponse, (5, True)),
    (TaskDependence, ((1 << 64) - 1, Direction.INOUT)),
    (TaskDescriptor, ((1 << 64) - 1, (DEP,) * 15)),
    (ReadyPacket, (9, 2, 3, 4)),
    (ReadyTask, (3, 4)),
    (FetchedTask, (4, 3)),
]

#: (record class, keyword fields, error type, exact message) per check.
INVALID = [
    (RoccCommand, dict(funct=SUBMIT, rs1_value=1 << 64), ProtocolError,
     "rs1_value is not a 64-bit value: 0x10000000000000000"),
    (RoccCommand, dict(funct=SUBMIT, rs1_value=-1), ProtocolError,
     "rs1_value is not a 64-bit value: -0x1"),
    (RoccCommand, dict(funct=SUBMIT, rs2_value=1 << 64), ProtocolError,
     "rs2_value is not a 64-bit value: 0x10000000000000000"),
    (RoccCommand, dict(funct=SUBMIT, rs2_value=-1), ProtocolError,
     "rs2_value is not a 64-bit value: -0x1"),
    (TaskDependence, dict(address=1 << 64, direction=Direction.IN),
     PicosError, "dependence address is not 64-bit: 0x10000000000000000"),
    (TaskDependence, dict(address=-1, direction=Direction.IN), PicosError,
     "dependence address is not 64-bit: -0x1"),
    (TaskDependence, dict(address=0, direction=1), PicosError,
     "invalid direction: 1"),
    (TaskDescriptor, dict(sw_id=1 << 64), PicosError,
     "sw_id is not a 64-bit value: 18446744073709551616"),
    (TaskDescriptor, dict(sw_id=-1), PicosError,
     "sw_id is not a 64-bit value: -1"),
    (TaskDescriptor, dict(sw_id=0, dependences=[DEP] * 16), PicosError,
     "Picos supports at most 15 dependences per task, got 16"),
]


def _id(case):
    return case[0].__name__


@pytest.mark.parametrize("record, fields, error, message", INVALID,
                         ids=[f"{case[0].__name__}-{index}"
                              for index, case in enumerate(INVALID)])
def test_out_of_range_values_raise_the_same_error(record, fields, error,
                                                  message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        record(**fields)


@pytest.mark.parametrize("record, values", VALID, ids=[_id(c) for c in VALID])
def test_records_are_immutable(record, values):
    value = record(*values)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("record, values", VALID, ids=[_id(c) for c in VALID])
def test_equal_values_compare_equal(record, values):
    first, second = record(*values), record(*values)
    assert first == second and hash(first) == hash(second)
    assert first is not second
    assert dict(zip(record._fields, values)) == {
        name: getattr(first, name) for name in record._fields}


@pytest.mark.parametrize("record, values", VALID, ids=[_id(c) for c in VALID])
def test_records_survive_a_pickle_round_trip(record, values):
    value = record(*values)
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and restored.__class__ is record
    assert repr(restored) == repr(value)


def test_keyword_construction_and_defaults():
    assert RoccCommand(funct=SUBMIT) == RoccCommand(SUBMIT, 0, 0)
    assert RoccResponse() == RoccResponse(value=0, success=True)
    assert RoccResponse.failure() is RoccResponse.failure()
    assert RoccResponse.failure().value == FAILURE_FLAG
    assert TaskDescriptor(sw_id=3).dependences == ()
    assert repr(ReadyTask(picos_id=1, sw_id=2)) == "ReadyTask(picos_id=1, sw_id=2)"


def test_descriptor_keeps_dependences_as_a_tuple():
    descriptor = TaskDescriptor(1, [DEP, DEP])
    assert descriptor.dependences == (DEP, DEP)
    assert descriptor.dependences.__class__ is tuple
    assert descriptor.num_dependences == 2
    assert descriptor.nonzero_packets == 9
