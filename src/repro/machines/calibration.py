"""Calibrating the EM coupling model against the paper's matrices.

The forward measurement pipeline is, end to end,

    program -> cycle simulation -> activity trace -> couplings ->
    antenna waveform -> spectrum analyzer -> band power -> zJ,

and everything in it except the coupling weights is determined by the
machine spec and the methodology.  Calibration fits those weights (plus
a small per-event "self-noise" term) so the forward pipeline reproduces
a published reference matrix.  Crucially, the fit is expressed in terms
of *simulated per-event activity profiles*: the couplings weight real
microarchitectural activity, so perturbing a program or machine
parameter produces honest downstream changes rather than a table
lookup.

The math
--------
For an alternation of events A and B with per-iteration costs
``cpi_A``/``cpi_B`` (cycles) and per-cycle activity-rate vectors
``rho_A``/``rho_B``, the received waveform is (to first order) a
two-level square wave with per-mode levels ``W @ rho``.  Its fundamental
band power divided by the pair rate gives

    SAVAT(A, B) = G_AB * sum_m (W[m] . (rho_A - rho_B))^2 + s_A + s_B

where ``G_AB = 2 sin^2(pi d_AB) (cpi_A + cpi_B) / (pi^2 R f_clk)`` with
duty ``d_AB = cpi_A / (cpi_A + cpi_B)``, and ``s_X`` is event X's
self-noise: the residual alternation-frequency energy produced even in
an X/X measurement by imperfect matching of the two halves (different
sweep arrays, hence different address bits on the buses).  The paper's
A/A diagonal *is* this term, so ``s_X = D_XX / 2``.

Fitting is then: (1) turn the reference matrix into squared distances
``Q_AB = (D_AB - s_A - s_B) / G_AB``; (2) classically MDS-embed ``Q``
into ``num_modes`` dimensions, giving per-event points ``p_X``; and (3)
solve the linear least-squares problem ``W @ rho_X ~ p_X`` (both sides
centered — only differences are observable).
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import CalibrationError
from repro.isa.events import EVENT_ORDER, PAPER_EVENTS, get_event
from repro.codegen.frequency import measure_cycles_per_iteration, plan_sweep_for_core
from repro.codegen.alternation import POINTER_REGISTER_A, build_probe_program
from repro.codegen.pointers import prime_for_sweep
from repro.em.coupling import CouplingMatrix, DEFAULT_NUM_MODES
from repro.machines.reference_data import ReferenceMatrix
from repro.machines.specs import MachineSpec
from repro.units import REFERENCE_IMPEDANCE, ZEPTOJOULE

#: Iterations used by the calibration probes (steady state is reached
#: within a handful of iterations once the hierarchy is primed).
CALIBRATION_PROBE_ITERATIONS = 64


@dataclass(frozen=True)
class EventProfile:
    """Simulated steady-state behaviour of one event's loop half."""

    name: str
    cycles_per_iteration: float
    activity_rates: np.ndarray  # per-cycle activity, length NUM_COMPONENTS


@dataclass
class CalibrationResult:
    """Fitted EM model for one (machine, distance) pair.

    Attributes
    ----------
    coupling:
        Fitted per-mode component couplings (V per activity unit).
    self_noise_j:
        Per-event self-noise energy (J per A/A pair), from the
        reference diagonal.
    profiles:
        Per-event simulated profiles used in the fit.
    points:
        The MDS embedding (events x modes), for diagnostics.
    fitted_points:
        ``W @ rho`` for each event — how well the activity model can
        express the embedding.
    reference:
        The reference matrix that was fitted.
    stress:
        Relative embedding stress: fraction of the (geometry-weighted)
        squared-distance mass the ``num_modes``-dimensional embedding
        could not represent.  0 is perfect.
    clock_hz:
        Clock the geometry factors were computed against.
    """

    coupling: CouplingMatrix
    self_noise_j: dict[str, float]
    profiles: dict[str, EventProfile]
    points: np.ndarray
    fitted_points: np.ndarray
    reference: ReferenceMatrix
    stress: float
    clock_hz: float

    def geometry_factor(self, event_a: str, event_b: str) -> float:
        """``G_AB`` (J per squared volt) for a pair of events."""
        profile_a = self.profiles[event_a.upper()]
        profile_b = self.profiles[event_b.upper()]
        return pair_geometry_factor(
            profile_a.cycles_per_iteration,
            profile_b.cycles_per_iteration,
            self.clock_hz,
        )

    def predicted_matrix_zj(self) -> np.ndarray:
        """The matrix the *analytic* forward model predicts, in zJ.

        Useful for diagnostics; the full pipeline (cycle simulation +
        spectrum analyzer) should land close to this.
        """
        names = EVENT_ORDER
        count = len(names)
        predicted = np.zeros((count, count))
        for i, name_a in enumerate(names):
            for j, name_b in enumerate(names):
                delta = self.fitted_points[i] - self.fitted_points[j]
                geometry = self.geometry_factor(name_a, name_b)
                predicted[i, j] = (
                    geometry * float(delta @ delta)
                    + self.self_noise_j[name_a]
                    + self.self_noise_j[name_b]
                ) / ZEPTOJOULE
        return predicted


def pair_geometry_factor(
    cpi_a: float,
    cpi_b: float,
    clock_hz: float,
    impedance: float = REFERENCE_IMPEDANCE,
) -> float:
    """``G_AB`` — J of per-pair energy per squared volt of level difference.

    Derivation: the alternation waveform is a two-level square wave with
    duty ``d = cpi_a/(cpi_a+cpi_b)``; its fundamental Fourier magnitude
    is ``|dL| sin(pi d)/pi``; band power across R is twice the squared
    magnitude over R; dividing by the pair rate ``f_clk / (cpi_a+cpi_b)``
    yields G.
    """
    if not all(0 < value < math.inf for value in (cpi_a, cpi_b, clock_hz)):
        raise CalibrationError(
            f"cpi values and clock must be positive and finite; got "
            f"cpi {cpi_a!r}/{cpi_b!r}, clock {clock_hz!r} Hz"
        )
    duty = cpi_a / (cpi_a + cpi_b)
    return (
        2.0
        * math.sin(math.pi * duty) ** 2
        * (cpi_a + cpi_b)
        / (math.pi**2 * impedance * clock_hz)
    )


def profile_event(spec: MachineSpec, event_name: str) -> EventProfile:
    """Simulate one event's loop half and extract its steady-state profile."""
    event = get_event(event_name)
    core = spec.make_core()
    cpi = measure_cycles_per_iteration(core, event, CALIBRATION_PROBE_ITERATIONS)
    # Re-run to collect the activity-rate vector from a clean, primed run.
    plan = plan_sweep_for_core(core, event)
    program = build_probe_program(event, CALIBRATION_PROBE_ITERATIONS, plan)
    prime_for_sweep(core.hierarchy, plan, is_write=event.is_store)
    core.registers[POINTER_REGISTER_A] = plan.base
    core.registers["eax"] = 173
    result = core.run(program, warm_hierarchy=True)
    return EventProfile(
        name=event.name,
        cycles_per_iteration=cpi,
        activity_rates=result.trace.mean_rates(),
    )


#: Event profiles per machine spec (see :func:`profile_all_events`).
_PROFILES: dict[MachineSpec, dict[str, EventProfile]] = {}


def profile_all_events(spec: MachineSpec) -> dict[str, EventProfile]:
    """Profiles for all eleven paper events on ``spec``, memoized per spec.

    Profiling is deterministic and does not depend on the antenna
    distance, so every calibration of one spec shares the same profiles.
    Each call returns a new dict, and the cached activity arrays are
    read-only.
    """
    if spec not in _PROFILES:
        profiles = {event.name: profile_event(spec, event.name) for event in PAPER_EVENTS}
        for profile in profiles.values():
            profile.activity_rates.flags.writeable = False
        _PROFILES[spec] = profiles
    return dict(_PROFILES[spec])


def clear_profile_cache() -> None:
    """Drop the memoized event profiles."""
    _PROFILES.clear()


def classical_mds(squared_distances: np.ndarray, num_dims: int) -> tuple[np.ndarray, float]:
    """Classical multidimensional scaling.

    Parameters
    ----------
    squared_distances:
        Symmetric matrix of squared distances with a zero diagonal.
    num_dims:
        Embedding dimensionality.

    Returns
    -------
    (points, stress):
        ``points`` has shape ``(n, num_dims)``; ``stress`` is the
        fraction of total eigenvalue mass not captured by the retained
        non-negative eigenvalues (0 = exact Euclidean embedding).
    """
    squared = np.asarray(squared_distances, dtype=np.float64)
    if squared.ndim != 2 or squared.shape[0] != squared.shape[1]:
        raise CalibrationError(f"squared-distance matrix must be square, got {squared.shape}")
    count = squared.shape[0]
    if num_dims < 1 or num_dims >= count:
        raise CalibrationError(f"num_dims must be in [1, {count - 1}], got {num_dims}")
    centering = np.eye(count) - np.ones((count, count)) / count
    gram = -0.5 * centering @ squared @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    kept = np.clip(eigenvalues[:num_dims], 0.0, None)
    points = eigenvectors[:, :num_dims] * np.sqrt(kept)
    total_mass = float(np.abs(eigenvalues).sum())
    captured = float(kept.sum())
    stress = 1.0 - captured / total_mass if total_mass > 0 else 0.0
    return points, stress


def fit_coupling_weights(
    activity_rates: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solve ``W @ rho_i ~ p_i`` (centered both sides).

    Returns ``(weights, fitted_points)`` where ``weights`` has shape
    ``(num_modes, NUM_COMPONENTS)`` and ``fitted_points`` is
    ``rho_centered @ weights.T`` re-expressed in the points' frame.
    """
    rates = np.asarray(activity_rates, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if rates.shape[0] != points.shape[0]:
        raise CalibrationError(
            f"got {rates.shape[0]} activity profiles but {points.shape[0]} points"
        )
    rates_centered = rates - rates.mean(axis=0)
    points_centered = points - points.mean(axis=0)
    solution, _residuals, _rank, _sv = np.linalg.lstsq(
        rates_centered, points_centered, rcond=None
    )
    weights = solution.T  # (num_modes, NUM_COMPONENTS)
    fitted = rates_centered @ solution
    return weights, fitted


class _PairProblem(NamedTuple):
    """The per-pair arrays every least-squares restart fits against."""

    pair_design: np.ndarray  # (num_pairs, num_components)
    pair_geometry: np.ndarray
    pair_noise: np.ndarray
    pair_reference: np.ndarray
    num_modes: int


def _fit_restart(problem: _PairProblem, start: np.ndarray) -> tuple[np.ndarray, float]:
    """One least-squares restart from ``start``; returns ``(x, cost)``.

    Module-level so pool workers can run it.
    """
    from scipy.optimize import least_squares

    pair_design, pair_geometry, pair_noise, pair_reference, num_modes = problem
    num_components = pair_design.shape[1]

    def predict(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        levels = pair_design @ weights.T  # (num_pairs, M)
        return pair_geometry * np.sum(levels**2, axis=1) + pair_noise, levels

    def residuals(flat: np.ndarray) -> np.ndarray:
        predicted, _levels = predict(flat.reshape(num_modes, num_components))
        return np.log(predicted) - np.log(pair_reference)

    def jacobian(flat: np.ndarray) -> np.ndarray:
        weights = flat.reshape(num_modes, num_components)
        predicted, levels = predict(weights)
        rows = (
            (2.0 * pair_geometry / predicted)[:, None, None]
            * levels[:, :, None]
            * pair_design[:, None, :]
        )
        return rows.reshape(len(pair_reference), num_modes * num_components)

    solution = least_squares(
        residuals, start.ravel(), jac=jacobian, method="trf", max_nfev=3000
    )
    return solution.x, solution.cost


def refine_coupling_weights(
    initial_weights: np.ndarray,
    activity_rates: np.ndarray,
    geometry: np.ndarray,
    self_noise: np.ndarray,
    reference_j: np.ndarray,
    restarts: int = 3,
    seed: int = 20141213,
) -> np.ndarray:
    """Nonlinearly refine coupling weights against the reference matrix.

    The MDS + linear-least-squares initialization minimizes error in the
    embedding space, which over-weights the largest distances; this stage
    instead minimizes the **log-relative error of the final SAVAT
    matrix** over all unordered pairs — exactly the "shape fidelity"
    criterion the reproduction targets.  Uses an analytic Jacobian and a
    few randomized restarts (deterministic seed) to escape the
    occasional poor local minimum.

    The restarts are independent, so they run at the same time: this
    process fits the unperturbed start while a forked process pool fits
    the perturbed ones.  Every start is drawn up front in trial order
    and the lowest cost wins, ties going to the earliest trial, so the
    result is bit-identical to fitting them one after another.  An
    exception from any restart propagates once every worker has exited.

    Parameters
    ----------
    initial_weights:
        Starting point, shape ``(num_modes, NUM_COMPONENTS)``.
    activity_rates:
        Per-event rate vectors, shape ``(num_events, NUM_COMPONENTS)``.
    geometry:
        Pairwise ``G_AB`` factors, shape ``(num_events, num_events)``.
    self_noise:
        Per-event self-noise energies (J), length ``num_events``.
    reference_j:
        Symmetrized reference matrix in joules.
    restarts:
        Number of fits, at least 1: the unperturbed start plus
        ``restarts - 1`` randomly perturbed ones.
    """
    if restarts < 1:
        raise CalibrationError(f"restarts must be at least 1, got {restarts}")
    # Workers are forked from this process: importing the optimizer
    # here means none of them imports it again.
    import scipy.optimize  # noqa: F401

    num_modes = initial_weights.shape[0]
    rates_centered = activity_rates - activity_rates.mean(axis=0)
    scale = np.abs(rates_centered).max(axis=0)
    scale[scale == 0] = 1.0
    design = rates_centered / scale

    upper = np.triu_indices(reference_j.shape[0], 1)
    problem = _PairProblem(
        pair_design=design[upper[0]] - design[upper[1]],
        pair_geometry=geometry[upper],
        pair_noise=self_noise[upper[0]] + self_noise[upper[1]],
        pair_reference=reference_j[upper],
        num_modes=num_modes,
    )

    rng = np.random.default_rng(seed)
    scaled_initial = initial_weights * scale
    shape = scaled_initial.shape
    spread = 0.1 * np.abs(scaled_initial).mean() + 1e-30
    starts = [scaled_initial] + [
        scaled_initial * rng.normal(1.0, 0.3, shape) + rng.normal(0.0, spread, shape)
        for _trial in range(1, restarts)
    ]

    first, *others = starts
    pool = (
        ProcessPoolExecutor(
            max_workers=len(others), mp_context=multiprocessing.get_context("fork")
        )
        if others
        else contextlib.nullcontext()
    )
    with pool:
        futures = [pool.submit(_fit_restart, problem, start) for start in others]
        fits = [_fit_restart(problem, first)]
        fits += [future.result() for future in futures]

    # min() replaces its pick only on a strictly lower cost: ties go to
    # the earliest trial.
    best_x, _cost = min(fits, key=lambda fit: fit[1])
    return best_x.reshape(num_modes, design.shape[1]) / scale


def calibrate(
    spec: MachineSpec,
    reference: ReferenceMatrix,
    num_modes: int = DEFAULT_NUM_MODES,
    refine: bool = True,
) -> CalibrationResult:
    """Fit the EM model of ``spec`` to a published matrix.

    See the module docstring for the math.  The reference is
    symmetrized first (A/B vs B/A differences are measurement error).
    With ``refine=True`` (default), the MDS/least-squares initialization
    is polished by :func:`refine_coupling_weights`.
    """
    profiles = profile_all_events(spec)
    names = EVENT_ORDER
    count = len(names)

    reference_j = reference.symmetrized() * ZEPTOJOULE
    self_noise = {name: float(reference_j[i, i]) / 2.0 for i, name in enumerate(names)}

    geometry = np.array(
        [
            [
                pair_geometry_factor(
                    profiles[name_a].cycles_per_iteration,
                    profiles[name_b].cycles_per_iteration,
                    spec.clock_hz,
                )
                for name_b in names
            ]
            for name_a in names
        ]
    )
    squared = np.zeros((count, count))
    for i, name_a in enumerate(names):
        for j, name_b in enumerate(names):
            if i == j:
                continue
            excess = reference_j[i, j] - self_noise[name_a] - self_noise[name_b]
            squared[i, j] = max(excess, 0.0) / geometry[i, j]

    squared = (squared + squared.T) / 2.0
    points, stress = classical_mds(squared, num_modes)

    rates = np.stack([profiles[name].activity_rates for name in names])
    weights, fitted = fit_coupling_weights(rates, points)

    if refine:
        noise_vector = np.array([self_noise[name] for name in names])
        weights = refine_coupling_weights(
            weights, rates, geometry, noise_vector, reference_j
        )
        rates_centered = rates - rates.mean(axis=0)
        fitted = rates_centered @ weights.T

    return CalibrationResult(
        coupling=CouplingMatrix(weights, distance_m=reference.distance_m),
        self_noise_j=self_noise,
        profiles=profiles,
        points=points,
        fitted_points=fitted,
        reference=reference,
        stress=stress,
        clock_hz=spec.clock_hz,
    )
