"""Calibrated machines: spec + fitted EM model, ready for measurement.

``load_calibrated_machine("core2duo", distance_m=0.10)`` is the main
entry point for the measurement layer: it returns a handle bundling the
machine spec with the paper's published matrix for that machine and
distance, and the handle fits coupling weights and per-event self-noise
against that matrix the first time a measurement reads them.

For distances the paper did not publish, the Core 2 Duo's three
published distances (10/50/100 cm) anchor a per-cell near-field/
far-field interpolation; the other two machines reuse the Core 2 Duo's
relative attenuation profile (the physics of distance roll-off lives in
the board/package geometry, which is similar across laptops, not in the
microarchitecture).  Interpolated targets are flagged ``exact=False`` and
list the published distances they were built from in ``anchors_m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.em.coupling import CouplingMatrix, DEFAULT_NUM_MODES
from repro.em.environment import NoiseEnvironment, quiet_lab_environment
from repro.em.propagation import interpolate_matrix
from repro.errors import CalibrationError, ConfigurationError
from repro.isa.events import EVENT_ORDER
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


#: Fits per (machine, distance key, modes).  Environment variants of a
#: calibration share one entry: the environment plays no part in the fit.
_CACHE: dict[tuple[str, float, int], CalibrationResult] = {}


@dataclass(eq=False)
class CalibratedMachine:
    """A machine spec plus its EM model at one distance, fitted on first use.

    The handle holds what the fit needs (the spec, the reference matrix,
    the distance and ``num_modes``) and the noise environment, so making
    one is cheap.  The fit itself (:func:`calibrate`, ~1 s) runs on the
    first read of :attr:`calibration`, :attr:`coupling` or
    :meth:`self_noise_j`, and is memoized per (machine, distance,
    modes): handles that differ only in their environment share one
    fit.  A handle whose fit has run carries it when pickled, so a pool
    worker that receives it never refits.  A campaign whose every cell
    is read back from the result cache never reads the fit at all.
    """

    spec: MachineSpec
    reference: ReferenceMatrix = field(repr=False)
    distance_m: float
    num_modes: int = DEFAULT_NUM_MODES
    environment: NoiseEnvironment = field(default_factory=quiet_lab_environment)
    _calibration: CalibrationResult | None = field(
        default=None, init=False, repr=False
    )

    @property
    def _fit_key(self) -> tuple[str, float, int]:
        return (self.spec.name, distance_key(self.distance_m), self.num_modes)

    @property
    def fitted(self) -> bool:
        """Whether the fit has run (here or for another handle of it)."""
        return self._calibration is not None or self._fit_key in _CACHE

    @property
    def calibration(self) -> CalibrationResult:
        """The fitted EM model; the first read of any handle fits it."""
        if self._calibration is None:
            key = self._fit_key
            if key not in _CACHE:
                _CACHE[key] = calibrate(
                    self.spec, self.reference, num_modes=self.num_modes
                )
            self._calibration = _CACHE[key]
        return self._calibration

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_calibration"] = self._calibration or _CACHE.get(self._fit_key)
        return state

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
        anchors_m=tuple(anchor.distance_m for anchor in anchors),
    )


def _scaled_distance_target(machine: str, distance_m: float) -> ReferenceMatrix:
    """Matrix for a non-Core-2 machine at an unpublished distance.

    Applies the Core 2 Duo's per-cell attenuation ratio (interpolated
    distance over 10 cm) to the machine's published 10 cm matrix.
    """
    base = REFERENCE_MATRICES[(machine, 0.10)]
    c2d_base = CORE2DUO_10CM.symmetrized()
    c2d_target = _core2duo_distance_target(distance_m)
    ratio = c2d_target.values_zj / np.clip(c2d_base, 1e-12, None)
    values = base.symmetrized() * ratio
    return ReferenceMatrix(
        machine=machine,
        distance_m=distance_m,
        values_zj=values,
        figure="scaled from 10 cm via Core 2 Duo attenuation",
        exact=False,
        anchors_m=c2d_target.anchors_m,
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


def load_calibrated_machine(
    name: str,
    distance_m: float = 0.10,
    num_modes: int = DEFAULT_NUM_MODES,
    environment: NoiseEnvironment | None = None,
) -> CalibratedMachine:
    """A calibrated-machine handle; the fit runs when first read.

    The handle is built at once and the load fails here, with one line,
    on an unknown machine, a bad distance or mode count, or a machine
    without published matrices.  The ~1 s fit against the reference
    matrix waits for the first read of the handle's calibration (see
    :class:`CalibratedMachine`): a campaign executor fits only machines
    with a cell its result cache cannot serve, so a fully cached rerun
    fits nothing.

    Parameters
    ----------
    name:
        Catalog machine name (``"core2duo"``, ``"pentium3m"``,
        ``"turionx2"``).
    distance_m:
        Antenna distance; published distances calibrate directly,
        others via interpolation (see module docstring).
    num_modes:
        Field modes in the EM model, from 1 to one less than the
        number of paper events.
    environment:
        Noise environment; defaults to the quiet lab of the paper's
        setup.  The environment does not participate in calibration
        (measurements are noise-floor-corrected, as on the real
        analyzer), so every environment shares one fit.

    Raises
    ------
    ConfigurationError
        If ``distance_m`` is not a positive, finite distance (zero or
        negative distances would make the near-field roll-off divide by
        zero or invert), or the machine is unknown.
    CalibrationError
        If ``num_modes`` is out of range, or the machine has no
        published matrix at any distance.
    """
    distance = float(distance_m)
    if not math.isfinite(distance) or distance <= 0:
        raise ConfigurationError(
            f"distance_m must be a positive, finite distance in metres; "
            f"got {distance_m!r}"
        )
    spec = get_machine(name)
    most = len(EVENT_ORDER) - 1
    if isinstance(num_modes, bool) or not isinstance(num_modes, (int, np.integer)) or not (
        1 <= num_modes <= most
    ):
        raise CalibrationError(f"num_modes must be in [1, {most}], got {num_modes!r}")
    return CalibratedMachine(
        spec=spec,
        reference=reference_for(name, distance),
        distance_m=distance,
        num_modes=int(num_modes),
        environment=environment or quiet_lab_environment(),
    )


def clear_calibration_cache() -> None:
    """Drop all memoized fits and event profiles (mostly for tests).

    Handles that have read their fit keep it; any other handle refits.
    """
    _CACHE.clear()
    clear_profile_cache()
