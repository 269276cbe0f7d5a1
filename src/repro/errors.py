"""Exception hierarchy for the SAVAT reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from simulation or
measurement problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent.

    Raised, for example, when a cache geometry is not a power of two, a
    measurement distance is non-positive, or an unknown machine name is
    requested from the catalog.
    """


class AssemblyError(ReproError):
    """A program could not be assembled or decoded.

    Raised for unknown mnemonics, malformed operands, duplicate labels,
    and references to labels that were never defined.
    """


class SimulationError(ReproError):
    """The microarchitectural simulation reached an invalid state.

    Raised, for example, when a program runs past its end without a halt,
    when an instruction reads an undefined register, or when the cycle
    budget of a bounded simulation is exhausted.
    """


class CalibrationError(ReproError):
    """EM-model calibration against the reference data failed.

    Raised when the reference matrix cannot be embedded (e.g. wrong
    shape), when the coupling fit is degenerate, or when a calibrated
    machine is requested for a distance with no calibration data and no
    usable propagation fit.
    """


class CellExecutionError(ReproError):
    """A campaign cell failed fatally after exhausting its retry budget.

    Raised by the campaign executor when a cell keeps raising (or keeps
    exceeding its wall-clock timeout) past ``max_retries`` attempts, or
    when every worker slot has been lost to hung cells.  With a result
    cache, every cell that completed before the failure is already in
    it, so rerunning the same campaign against that cache picks up from
    where the campaign stopped instead of from zero; the message says
    which case applies.
    """

    def __init__(
        self,
        message: str,
        *,
        i: int | None = None,
        j: int | None = None,
        pair: str | None = None,
        attempts: int | None = None,
    ) -> None:
        super().__init__(message)
        self.i = i
        self.j = j
        self.pair = pair
        self.attempts = attempts


class MeasurementError(ReproError):
    """A SAVAT measurement could not be carried out.

    Raised when the requested alternation frequency cannot be realized,
    when a signal is too short for the requested resolution bandwidth, or
    when the spectrum band falls outside the digitized range.
    """
