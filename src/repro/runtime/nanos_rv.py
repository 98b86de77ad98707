"""Nanos-RV's former import path; the runtime is :mod:`repro.runtime.nanos`."""

from repro.runtime.nanos import NanosRVRuntime

__all__ = ["NanosRVRuntime"]
