"""Distance dependence of the received side-channel signal.

EM sources inside a computer have both **near-field** terms, whose power
falls off like ``r^-6`` and which dominate at the paper's 10 cm
measurements, and **far-field** (radiating) terms falling like ``r^-2``.
Short on-chip wires are poor radiators (near-field dominated), while the
long processor-memory bus traces and DRAM wiring radiate comparatively
well.  This is the mechanism behind the paper's Section V-B findings:

* SAVAT drops sharply from 10 cm to 50 cm but little from 50 cm to
  100 cm (the near-field terms are already gone by 50 cm);
* at 50/100 cm the off-chip events (LDM/STM) become by far the most
  distinguishable, while the L2 and DIV pairings collapse toward the
  measurement floor.

:class:`NearFarModel` captures one signal's two-term power law; the
module also provides a least-squares fit from measurements at several
distances, used to interpolate SAVAT matrices at distances the paper
did not publish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError, ConfigurationError
from repro.scipy_extensions import load_extension

#: Reference distance (m) at which coupling amplitudes are quoted.
REFERENCE_DISTANCE_M = 0.10

#: Power-law exponent of near-field *power* (fields ~ r^-3).
NEAR_FIELD_POWER_EXPONENT = 6.0

#: Power-law exponent of far-field *power* (fields ~ r^-1).
FAR_FIELD_POWER_EXPONENT = 2.0


@dataclass(frozen=True)
class NearFarModel:
    """Two-term power law: ``P(d) = near*(d0/d)^6 + far*(d0/d)^2``.

    ``near`` and ``far`` are the power contributions at the reference
    distance ``d0``.  Both must be non-negative.
    """

    near: float
    far: float
    reference_m: float = REFERENCE_DISTANCE_M

    def __post_init__(self) -> None:
        if self.near < 0 or self.far < 0:
            raise ConfigurationError(
                f"near/far contributions must be non-negative, got {self.near}/{self.far}"
            )
        if self.reference_m <= 0:
            raise ConfigurationError(f"reference distance must be positive, got {self.reference_m}")

    def power_at(self, distance_m: float) -> float:
        """Received power at ``distance_m``, in the units of near/far."""
        if distance_m <= 0:
            raise ConfigurationError(f"distance must be positive, got {distance_m}")
        ratio = self.reference_m / distance_m
        return (
            self.near * ratio**NEAR_FIELD_POWER_EXPONENT
            + self.far * ratio**FAR_FIELD_POWER_EXPONENT
        )

    def amplitude_ratio(self, distance_m: float) -> float:
        """sqrt(P(d) / P(d0)) — amplitude scaling relative to reference."""
        total = self.near + self.far
        if total <= 0:
            return 0.0
        return float(np.sqrt(self.power_at(distance_m) / total))

    @property
    def far_fraction(self) -> float:
        """Fraction of reference-distance power that is far-field."""
        total = self.near + self.far
        return self.far / total if total > 0 else 0.0


def fit_near_far(
    distances_m: np.ndarray, powers: np.ndarray, reference_m: float = REFERENCE_DISTANCE_M
) -> NearFarModel:
    """Fit a :class:`NearFarModel` to power measurements.

    A non-negative least-squares fit of the two-term power law; with two
    or three distances (the paper's 10/50/100 cm) this is exactly or
    mildly over-determined.

    Raises
    ------
    CalibrationError
        If fewer than two distinct distances are supplied.
    """
    distances = np.asarray(distances_m, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    if distances.shape != powers.shape or distances.ndim != 1:
        raise CalibrationError(
            f"distances and powers must be 1-D and congruent, got "
            f"{distances.shape} and {powers.shape}"
        )
    if len(np.unique(distances)) < 2:
        raise CalibrationError("need at least two distinct distances for a near/far fit")
    if np.any(distances <= 0):
        raise CalibrationError("distances must be positive")
    if np.any(powers < 0):
        raise CalibrationError("powers must be non-negative")

    ratios = reference_m / distances
    design = np.stack(
        [ratios**NEAR_FIELD_POWER_EXPONENT, ratios**FAR_FIELD_POWER_EXPONENT], axis=1
    )
    # Non-negative least squares keeps both terms physical.
    solution = _nnls(design, powers)
    return NearFarModel(near=float(solution[0]), far=float(solution[1]), reference_m=reference_m)


def _nnls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``scipy.optimize.nnls(design, target)[0]`` without importing ``scipy.optimize``.

    Calls the compiled solver ``scipy.optimize.nnls`` wraps, with its
    input conversions and default iteration limit, so the result is the
    same bits.
    """
    design = np.asarray_chkfinite(design, dtype=np.float64, order="C")
    target = np.asarray_chkfinite(target, dtype=np.float64)
    slsqplib = load_extension("scipy.optimize._slsqplib")
    solution, _rnorm, info = slsqplib.nnls(design, target, 3 * design.shape[1])
    if info == 3:
        raise CalibrationError("near/far fit: maximum number of nnls iterations reached")
    return solution


def interpolate_matrix(
    distances_m: list[float],
    matrices: list[np.ndarray],
    target_distance_m: float,
    floor: float,
) -> np.ndarray:
    """Interpolate a SAVAT matrix to a new distance, cell by cell.

    Each matrix cell's above-floor power gets its own near/far fit; the
    floor (instrument-limited) is added back unchanged, because the
    paper's A/A diagonals are flat across distance.

    Parameters
    ----------
    distances_m, matrices:
        Matched lists of measured distances and SAVAT matrices (zJ).
    target_distance_m:
        Distance to predict.
    floor:
        Measurement floor (zJ) to subtract/re-add.
    """
    if len(distances_m) != len(matrices) or len(distances_m) < 2:
        raise CalibrationError("need >= 2 (distance, matrix) pairs to interpolate")
    shape = matrices[0].shape
    stack = np.stack([np.asarray(matrix, dtype=np.float64) for matrix in matrices])
    if any(matrix.shape != shape for matrix in matrices):
        raise CalibrationError("all matrices must share a shape")
    distances = np.asarray(distances_m, dtype=np.float64)
    result = np.empty(shape)
    for row in range(shape[0]):
        for column in range(shape[1]):
            cell = np.clip(stack[:, row, column] - floor, 0.0, None)
            model = fit_near_far(distances, cell)
            result[row, column] = model.power_at(target_distance_m) + floor
    return result
