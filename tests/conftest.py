"""Shared fixtures for the test suite.

Calibrated machines are session-scoped because calibration costs a few
seconds; measurement tests share them read-only.  ``tiny_spec`` is a
deliberately small machine whose cache behaviour is easy to reason about
exhaustively in unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines.calibrated import load_calibrated_machine
from repro.machines.specs import MachineSpec
from repro.uarch.cache import CacheGeometry


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_spec() -> MachineSpec:
    """A small machine for fast, exhaustive microarchitecture tests."""
    return MachineSpec(
        name="tiny",
        display_name="Tiny Test Machine",
        clock_hz=1e9,
        l1_geometry=CacheGeometry(size_bytes=1024, ways=2, line_bytes=64),
        l2_geometry=CacheGeometry(size_bytes=8192, ways=4, line_bytes=64),
    )


def _fitted(name: str, distance_m: float):
    """A loaded machine whose fit has run (so it sits in the fit memo
    before any test swaps the memo out)."""
    machine = load_calibrated_machine(name, distance_m)
    machine.calibration
    return machine


@pytest.fixture(scope="session")
def core2duo_10cm():
    """Calibrated Core 2 Duo at the paper's 10 cm distance."""
    return _fitted("core2duo", 0.10)


@pytest.fixture(scope="session")
def core2duo_100cm():
    """Calibrated Core 2 Duo at 100 cm."""
    return _fitted("core2duo", 1.00)
