"""Tests for the paper-claims checking machinery.

These run against the paper's *own* published matrices, so they verify
both the claim-check logic and (again) that the reference data supports
the prose.
"""

import numpy as np
import pytest

from repro.analysis.report import (
    claims_summary,
    core2duo_claims,
    distance_claims,
    experiment_report,
)
from repro.core.matrix import SavatMatrix
from repro.isa.events import EVENT_ORDER
from repro.machines.reference_data import (
    CORE2DUO_10CM,
    CORE2DUO_50CM,
    CORE2DUO_100CM,
)


def _wrap(reference) -> SavatMatrix:
    return SavatMatrix(EVENT_ORDER, reference.values_zj, reference.machine, reference.distance_m)


class TestCore2DuoClaims:
    def test_all_claims_hold_on_paper_data(self):
        checks = core2duo_claims(_wrap(CORE2DUO_10CM))
        failing = [check.claim for check in checks if not check.holds]
        assert failing == []

    def test_claim_count(self):
        assert len(core2duo_claims(_wrap(CORE2DUO_10CM))) == 7


class TestDistanceClaims:
    def test_all_distance_claims_hold_on_paper_data(self):
        checks = distance_claims(
            _wrap(CORE2DUO_10CM), _wrap(CORE2DUO_50CM), _wrap(CORE2DUO_100CM)
        )
        failing = [check.claim for check in checks if not check.holds]
        assert failing == []


class TestRendering:
    def test_claims_summary_format(self):
        checks = core2duo_claims(_wrap(CORE2DUO_10CM))
        text = claims_summary(checks)
        assert text.startswith(f"{len(checks)}/{len(checks)} claims hold")
        assert "[PASS]" in text

    def test_experiment_report_contents(self):
        matrix = _wrap(CORE2DUO_10CM)
        text = experiment_report(matrix, CORE2DUO_10CM)
        assert "Measured SAVAT" in text
        assert "Paper SAVAT" in text
        assert "Pearson 1.000" in text
        assert "core2duo" in text

    def test_one_repetition_report_prints_no_numeric_spread(self):
        matrix = _wrap(CORE2DUO_10CM)
        assert matrix.repetitions == 1
        text = experiment_report(matrix, CORE2DUO_10CM)
        assert "Repeatability (std/mean): undefined over 1 repetition" in text
        assert "0.000" not in text

    def test_repeated_report_prints_the_spread(self):
        values = CORE2DUO_10CM.values_zj
        samples = np.stack([values * 0.95, values * 1.05], axis=2)
        matrix = SavatMatrix(
            EVENT_ORDER, samples, CORE2DUO_10CM.machine, CORE2DUO_10CM.distance_m
        )
        text = experiment_report(matrix, CORE2DUO_10CM)
        assert f"Repeatability (std/mean): {matrix.std_over_mean():.3f}" in text
