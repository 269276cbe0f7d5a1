"""Property tests for SavatMatrix serialization and statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matrix import SavatMatrix
from repro.errors import ConfigurationError

_EVENT_SETS = st.sampled_from(
    [("ADD", "MUL"), ("ADD", "MUL", "LDM"), ("LDM", "STM", "DIV", "NOI")]
)


@st.composite
def _matrices(draw) -> SavatMatrix:
    events = draw(_EVENT_SETS)
    repetitions = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.1, 20.0, size=(len(events), len(events), repetitions))
    return SavatMatrix(events, samples, machine="m", distance_m=0.1)


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_is_lossless(matrix):
    rebuilt = SavatMatrix.from_json(matrix.to_json())
    assert rebuilt.events == matrix.events
    assert rebuilt.machine == matrix.machine
    assert rebuilt.distance_m == matrix.distance_m
    assert np.allclose(rebuilt.samples_zj, matrix.samples_zj)


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_symmetrized_is_symmetric_and_mean_preserving(matrix):
    symmetric = matrix.symmetrized()
    assert np.allclose(symmetric, symmetric.T)
    assert np.isclose(symmetric.mean(), matrix.mean().mean())


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_shape_agreement_with_self_is_perfect(matrix):
    stats = matrix.shape_agreement(matrix.mean())
    assert stats["pearson"] > 0.999
    assert stats["mean_relative_error"] < 1e-9


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_diagonal_minimality_bounds(matrix):
    rows, columns = matrix.diagonal_minimality()
    count = len(matrix.events)
    assert 0 <= rows <= count
    assert 0 <= columns <= count
    # Infinite tolerance counts everything.
    assert matrix.diagonal_minimality(tolerance_zj=1e9) == (count, count)


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_csv_is_rectangular(matrix):
    lines = matrix.to_csv().splitlines()
    width = len(lines[0].split(","))
    assert all(len(line.split(",")) == width for line in lines)
    assert len(lines) == len(matrix.events) + 1


@given(
    events=_EVENT_SETS,
    rows=st.integers(min_value=0, max_value=6),
    columns=st.integers(min_value=0, max_value=6),
    repetitions=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_mismatched_shapes_raise_configuration_error(
    events, rows, columns, repetitions
):
    if (rows, columns) == (len(events), len(events)):
        rows += 1  # force a genuine mismatch
    samples = np.ones((rows, columns, repetitions))
    with pytest.raises(ConfigurationError):
        SavatMatrix(events, samples, machine="m", distance_m=0.1)


@given(events=_EVENT_SETS)
@settings(max_examples=20, deadline=None)
def test_flat_samples_raise_configuration_error(events):
    with pytest.raises(ConfigurationError):
        SavatMatrix(events, np.ones(len(events)), machine="m", distance_m=0.1)


@given(matrix=_matrices())
@settings(max_examples=40, deadline=None)
def test_repeatability_ratio_is_non_negative(matrix):
    """NaN exactly when a spread is undefined (one repetition)."""
    ratio = matrix.std_over_mean()
    std = matrix.std()
    if matrix.repetitions < 2:
        assert np.isnan(ratio)
        assert np.all(np.isnan(std))
    else:
        assert ratio >= 0.0
        assert np.all(std >= 0.0)


@st.composite
def _matrices_with_permutations(draw) -> tuple[SavatMatrix, SavatMatrix]:
    matrix = draw(_matrices())
    count = len(matrix.events)
    order = draw(st.permutations(range(count)))
    order = np.asarray(order)
    permuted = SavatMatrix(
        events=tuple(matrix.events[k] for k in order),
        samples_zj=matrix.samples_zj[np.ix_(order, order)],
        machine=matrix.machine,
        distance_m=matrix.distance_m,
    )
    return matrix, permuted


@given(pair=_matrices_with_permutations())
@settings(max_examples=40, deadline=None)
def test_statistics_survive_event_permutation(pair):
    """Reordering the events permutes rows/columns but cannot change the
    paper's scalar validity statistics or the diagonal value set."""
    matrix, permuted = pair
    assert permuted.std_over_mean() == pytest.approx(
        matrix.std_over_mean(), nan_ok=True
    )
    assert permuted.asymmetry() == pytest.approx(matrix.asymmetry())
    assert permuted.diagonal_minimality() == matrix.diagonal_minimality()
    assert sorted(permuted.diagonal()) == pytest.approx(sorted(matrix.diagonal()))
    for event_a in matrix.events:
        for event_b in matrix.events:
            assert permuted.cell(event_a, event_b) == pytest.approx(
                matrix.cell(event_a, event_b)
            )


@given(pair=_matrices_with_permutations())
@settings(max_examples=40, deadline=None)
def test_symmetrized_diagonal_survives_event_permutation(pair):
    matrix, permuted = pair
    assert sorted(np.diag(permuted.symmetrized())) == pytest.approx(
        sorted(np.diag(matrix.symmetrized()))
    )
