"""Calibrated machines: spec + fitted EM model, ready for measurement.

``load_calibrated_machine("core2duo", distance_m=0.10)`` is the main
entry point for the measurement layer: it returns the machine spec
bundled with coupling weights and per-event self-noise calibrated
against the paper's published matrix for that machine and distance.

For distances the paper did not publish, the Core 2 Duo's three
published distances (10/50/100 cm) anchor a per-cell near-field/
far-field interpolation; the other two machines reuse the Core 2 Duo's
relative attenuation profile (the physics of distance roll-off lives in
the board/package geometry, which is similar across laptops, not in the
microarchitecture).  Interpolated targets are flagged ``exact=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.em.coupling import CouplingMatrix, DEFAULT_NUM_MODES
from repro.em.environment import NoiseEnvironment, quiet_lab_environment
from repro.em.propagation import interpolate_matrix
from repro.errors import CalibrationError, ConfigurationError
from repro.machines.calibration import CalibrationResult, calibrate, clear_profile_cache
from repro.machines.catalog import get_machine
from repro.machines.reference_data import (
    CORE2DUO_10CM,
    CORE2DUO_50CM,
    CORE2DUO_100CM,
    REFERENCE_MATRICES,
    ReferenceMatrix,
    distance_key,
)
from repro.machines.specs import MachineSpec
from repro.uarch.core import Core


@dataclass
class CalibratedMachine:
    """A machine spec plus its fitted EM model at one distance."""

    spec: MachineSpec
    calibration: CalibrationResult
    environment: NoiseEnvironment
    distance_m: float

    @property
    def name(self) -> str:
        """Catalog name of the underlying machine."""
        return self.spec.name

    @property
    def coupling(self) -> CouplingMatrix:
        """Fitted component-to-antenna couplings."""
        return self.calibration.coupling

    def self_noise_j(self, event_name: str) -> float:
        """Per-pair self-noise energy (J) for one event."""
        return self.calibration.self_noise_j[event_name.upper()]

    def make_core(self) -> Core:
        """A fresh simulated core for this machine."""
        return self.spec.make_core()

    def describe(self) -> str:
        """One-line summary for reports."""
        return f"{self.spec.describe()} at {self.distance_m * 100:.0f} cm"


def _core2duo_distance_target(distance_m: float) -> ReferenceMatrix:
    """Interpolated Core 2 Duo matrix at an unpublished distance."""
    anchors = [CORE2DUO_10CM, CORE2DUO_50CM, CORE2DUO_100CM]
    floor = float(min(np.diag(anchor.values_zj).min() for anchor in anchors))
    values = interpolate_matrix(
        [anchor.distance_m for anchor in anchors],
        [anchor.symmetrized() for anchor in anchors],
        distance_m,
        floor=floor,
    )
    return ReferenceMatrix(
        machine="core2duo",
        distance_m=distance_m,
        values_zj=np.clip(values, floor * 0.5, None),
        figure="interpolated",
        exact=False,
    )


def _scaled_distance_target(machine: str, distance_m: float) -> ReferenceMatrix:
    """Matrix for a non-Core-2 machine at an unpublished distance.

    Applies the Core 2 Duo's per-cell attenuation ratio (interpolated
    distance over 10 cm) to the machine's published 10 cm matrix.
    """
    base = REFERENCE_MATRICES[(machine, 0.10)]
    c2d_base = CORE2DUO_10CM.symmetrized()
    c2d_target = _core2duo_distance_target(distance_m).values_zj
    ratio = c2d_target / np.clip(c2d_base, 1e-12, None)
    values = base.symmetrized() * ratio
    return ReferenceMatrix(
        machine=machine,
        distance_m=distance_m,
        values_zj=values,
        figure="scaled from 10 cm via Core 2 Duo attenuation",
        exact=False,
    )


def reference_for(machine: str, distance_m: float) -> ReferenceMatrix:
    """Published or synthesized calibration target for (machine, distance).

    A distance equal to a published one to 0.1 mm gets the published
    matrix; any other is interpolated (see the module docstring).

    Raises
    ------
    CalibrationError
        If the machine has no published matrix at any distance.
    """
    machine = machine.lower()
    key = (machine, distance_key(distance_m))
    if key in REFERENCE_MATRICES:
        return REFERENCE_MATRICES[key]
    if machine == "core2duo":
        return _core2duo_distance_target(distance_m)
    if (machine, 0.10) in REFERENCE_MATRICES:
        return _scaled_distance_target(machine, distance_m)
    raise CalibrationError(
        f"no published matrices exist for machine {machine!r}; cannot calibrate"
    )


_CACHE: dict[tuple[str, float, int], CalibratedMachine] = {}


def load_calibrated_machine(
    name: str,
    distance_m: float = 0.10,
    num_modes: int = DEFAULT_NUM_MODES,
    environment: NoiseEnvironment | None = None,
) -> CalibratedMachine:
    """Load (and cache) a calibrated machine.

    Parameters
    ----------
    name:
        Catalog machine name (``"core2duo"``, ``"pentium3m"``,
        ``"turionx2"``).
    distance_m:
        Antenna distance; published distances calibrate directly,
        others via interpolation (see module docstring).
    num_modes:
        Field modes in the EM model.
    environment:
        Noise environment; defaults to the quiet lab of the paper's
        setup.  The environment does not participate in calibration
        (measurements are noise-floor-corrected, as on the real
        analyzer), so it may vary freely per measurement.

    Raises
    ------
    ConfigurationError
        If ``distance_m`` is not a positive, finite distance — caught
        here with a one-line error instead of surfacing later as a
        propagation-model surprise (zero/negative distances make the
        near-field roll-off divide by zero or invert).
    """
    distance = float(distance_m)
    if not math.isfinite(distance) or distance <= 0:
        raise ConfigurationError(
            f"distance_m must be a positive, finite distance in metres; "
            f"got {distance_m!r}"
        )
    key = (name.lower(), distance_key(distance), num_modes)
    if key not in _CACHE:
        spec = get_machine(name)
        reference = reference_for(name, distance_m)
        calibration = calibrate(spec, reference, num_modes=num_modes)
        _CACHE[key] = CalibratedMachine(
            spec=spec,
            calibration=calibration,
            environment=environment or quiet_lab_environment(),
            distance_m=float(distance_m),
        )
    machine = _CACHE[key]
    if environment is not None and machine.environment is not environment:
        machine = CalibratedMachine(
            spec=machine.spec,
            calibration=machine.calibration,
            environment=environment,
            distance_m=machine.distance_m,
        )
    return machine


def clear_calibration_cache() -> None:
    """Drop all cached calibrations and event profiles (mostly for tests)."""
    _CACHE.clear()
    clear_profile_cache()
