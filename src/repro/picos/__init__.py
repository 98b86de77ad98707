"""Picos hardware task scheduler: packets, dependence tracking, device."""

from repro.picos.axi import AxiPicosInterface
from repro.picos.dependence import DependenceTracker, TaskGraph, TaskState, TrackedTask
from repro.picos.device import PicosDevice, ReadyTask
from repro.picos.packets import (
    HEADER_PACKETS,
    MAX_DEPENDENCES,
    PACKETS_PER_DEPENDENCE,
    PACKETS_PER_DESCRIPTOR,
    Direction,
    TaskDependence,
    TaskDescriptor,
    decode_descriptor,
    encode_descriptor,
    encode_nonzero_packets,
    nonzero_packet_count,
    zero_packet_count,
)

__all__ = [
    "AxiPicosInterface",
    "DependenceTracker",
    "TaskGraph",
    "TaskState",
    "TrackedTask",
    "PicosDevice",
    "ReadyTask",
    "HEADER_PACKETS",
    "MAX_DEPENDENCES",
    "PACKETS_PER_DEPENDENCE",
    "PACKETS_PER_DESCRIPTOR",
    "Direction",
    "TaskDependence",
    "TaskDescriptor",
    "decode_descriptor",
    "encode_descriptor",
    "encode_nonzero_packets",
    "nonzero_packet_count",
    "zero_packet_count",
]
