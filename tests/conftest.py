"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.common.config import SimConfig


@pytest.fixture
def config() -> SimConfig:
    """Default configuration (8 cores) with a safety cycle cap for tests."""
    return SimConfig(max_cycles=200_000_000)


@pytest.fixture
def small_config() -> SimConfig:
    """A 4-core machine for faster runtime tests."""
    return SimConfig(max_cycles=200_000_000).with_cores(4)
