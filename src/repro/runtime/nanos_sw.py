"""Nanos-SW's former import path; the runtime is :mod:`repro.runtime.nanos`."""

from repro.runtime.nanos import NanosSWRuntime

__all__ = ["NanosSWRuntime"]
