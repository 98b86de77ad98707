"""Nanos-AXI's former import path; the runtime is :mod:`repro.runtime.nanos`."""

from repro.runtime.nanos import NanosAXIRuntime

__all__ = ["NanosAXIRuntime"]
