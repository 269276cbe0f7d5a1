"""Unit tests for SavatMatrix statistics and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matrix import SavatMatrix
from repro.errors import ConfigurationError

EVENTS = ("ADD", "MUL", "LDM")


def _matrix(samples=None, repetitions=3) -> SavatMatrix:
    if samples is None:
        rng = np.random.default_rng(0)
        base = np.array([[0.6, 0.8, 4.0], [0.9, 0.7, 4.5], [4.1, 4.4, 1.8]])
        samples = base[:, :, None] * rng.normal(1.0, 0.05, size=(3, 3, repetitions))
    return SavatMatrix(EVENTS, samples, machine="core2duo", distance_m=0.10)


class TestConstruction:
    def test_2d_input_promoted(self):
        matrix = SavatMatrix(EVENTS, np.ones((3, 3)), "m", 0.1)
        assert matrix.repetitions == 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            SavatMatrix(EVENTS, np.ones((2, 3, 4)), "m", 0.1)

    def test_event_index(self):
        matrix = _matrix()
        assert matrix.index("MUL") == 1
        assert matrix.index("mul") == 1

    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigurationError):
            _matrix().index("DIV")

    def test_duplicate_events_rejected(self):
        with pytest.raises(ConfigurationError, match="'add' appears twice"):
            SavatMatrix(("ADD", "add"), np.ones((2, 2)), "m", 0.1)


class TestStatistics:
    def test_mean_and_std_shapes(self):
        matrix = _matrix()
        assert matrix.mean().shape == (3, 3)
        assert matrix.std().shape == (3, 3)

    def test_std_undefined_for_single_repetition(self):
        matrix = SavatMatrix(EVENTS, np.ones((3, 3)), "m", 0.1)
        std = matrix.std()
        assert std.shape == (3, 3)
        assert np.all(np.isnan(std))

    def test_cell(self):
        matrix = _matrix()
        assert matrix.cell("ADD", "LDM") == pytest.approx(
            matrix.mean()[0, 2]
        )

    def test_cell_samples_length(self):
        assert len(_matrix(repetitions=5).cell_samples("ADD", "MUL")) == 5

    def test_std_over_mean_tracks_injected_noise(self):
        rng = np.random.default_rng(1)
        base = np.full((3, 3), 2.0)
        samples = base[:, :, None] * rng.normal(1.0, 0.05, size=(3, 3, 200))
        matrix = SavatMatrix(EVENTS, samples, "m", 0.1)
        assert matrix.std_over_mean() == pytest.approx(0.05, rel=0.15)

    def test_diagonal(self):
        matrix = SavatMatrix(EVENTS, np.diag([1.0, 2.0, 3.0]) + 5.0, "m", 0.1)
        assert list(matrix.diagonal()) == [6.0, 7.0, 8.0]

    def test_diagonal_minimality_counts(self):
        values = np.array([[0.1, 1.0, 1.0], [1.0, 0.1, 1.0], [1.0, 1.0, 5.0]])
        matrix = SavatMatrix(EVENTS, values, "m", 0.1)
        rows, columns = matrix.diagonal_minimality()
        assert rows == 2
        assert columns == 2

    def test_asymmetry_zero_for_symmetric(self):
        values = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0], [3.0, 4.0, 1.0]])
        matrix = SavatMatrix(EVENTS, values, "m", 0.1)
        assert matrix.asymmetry() == pytest.approx(0.0)

    def test_asymmetry_detects_order_effects(self):
        values = np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 4.0], [3.0, 4.0, 1.0]])
        matrix = SavatMatrix(EVENTS, values, "m", 0.1)
        assert matrix.asymmetry() > 0.2

    def test_symmetrized(self):
        matrix = _matrix()
        symmetric = matrix.symmetrized()
        assert np.allclose(symmetric, symmetric.T)


class TestShapeAgreement:
    def test_perfect_agreement(self):
        matrix = SavatMatrix(
            EVENTS, np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0], [3.0, 4.0, 1.0]]), "m", 0.1
        )
        stats = matrix.shape_agreement(matrix.mean())
        assert stats["pearson"] == pytest.approx(1.0)
        assert stats["spearman"] == pytest.approx(1.0)
        assert stats["mean_relative_error"] == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            _matrix().shape_agreement(np.ones((4, 4)))


class TestSerialization:
    def test_json_roundtrip(self):
        matrix = _matrix()
        matrix.metadata["seed"] = 7
        rebuilt = SavatMatrix.from_json(matrix.to_json())
        assert rebuilt.events == matrix.events
        assert rebuilt.machine == matrix.machine
        assert rebuilt.metadata["seed"] == 7
        assert np.allclose(rebuilt.samples_zj, matrix.samples_zj)

    def test_csv_contains_events_and_values(self):
        text = _matrix().to_csv()
        assert text.splitlines()[0] == ",ADD,MUL,LDM"
        assert "LDM," in text


@given(
    scale=st.floats(min_value=0.5, max_value=10.0),
    repetitions=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=30, deadline=None)
def test_mean_invariant_under_scaling(scale, repetitions):
    """Property: scaling all samples scales the mean linearly and leaves
    std/mean unchanged."""
    rng = np.random.default_rng(42)
    samples = rng.uniform(0.5, 5.0, size=(3, 3, repetitions))
    matrix = SavatMatrix(EVENTS, samples, "m", 0.1)
    scaled = SavatMatrix(EVENTS, samples * scale, "m", 0.1)
    assert np.allclose(scaled.mean(), matrix.mean() * scale)
    assert scaled.std_over_mean() == pytest.approx(matrix.std_over_mean(), rel=1e-9)
