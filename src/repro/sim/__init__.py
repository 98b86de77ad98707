"""Discrete-event simulation substrate (engine, queues, arbiters)."""

from repro.sim.arbiters import InOrderArbiter, RoundRobinArbiter
from repro.sim.engine import (
    Charge,
    Command,
    Delay,
    Engine,
    Event,
    Fork,
    Get,
    Join,
    Process,
    ProcessGen,
    Put,
    Wait,
)
from repro.sim.queues import DecoupledQueue, ProtocolCrossingQueue

__all__ = [
    "Charge",
    "Command",
    "Delay",
    "Engine",
    "Event",
    "Fork",
    "Get",
    "Join",
    "Process",
    "ProcessGen",
    "Put",
    "Wait",
    "DecoupledQueue",
    "ProtocolCrossingQueue",
    "InOrderArbiter",
    "RoundRobinArbiter",
]
