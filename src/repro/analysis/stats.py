"""Statistical helpers for comparing measured matrices with the paper."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def offdiagonal(matrix: np.ndarray) -> np.ndarray:
    """All off-diagonal entries of a square matrix, flattened."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError(f"need a square matrix, got shape {matrix.shape}")
    mask = ~np.eye(matrix.shape[0], dtype=bool)
    return matrix[mask]


def matrix_correlations(measured: np.ndarray, reference: np.ndarray) -> dict[str, float]:
    """Pearson/Spearman correlation and relative error over off-diagonals."""
    from scipy import stats as scipy_stats

    measured_flat = offdiagonal(measured)
    reference_flat = offdiagonal(reference)
    if measured_flat.shape != reference_flat.shape:
        raise ConfigurationError("matrices must share a shape")
    pearson = float(np.corrcoef(measured_flat, reference_flat)[0, 1])
    spearman = float(scipy_stats.spearmanr(measured_flat, reference_flat).statistic)
    valid = reference_flat > 0
    relative = float(
        np.mean(np.abs(measured_flat[valid] - reference_flat[valid]) / reference_flat[valid])
    )
    return {"pearson": pearson, "spearman": spearman, "mean_relative_error": relative}


def group_means(matrix: np.ndarray, labels: list[str], groups: dict[str, list[str]]) -> dict:
    """Mean inter-group SAVAT for each (group, group) combination.

    The diagonal blocks give intra-group means (the paper: "low
    intra-group and high inter-group SAVATs").
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    index = {label: i for i, label in enumerate(labels)}
    result: dict[tuple[str, str], float] = {}
    for name_a, members_a in groups.items():
        for name_b, members_b in groups.items():
            cells = [
                matrix[index[a], index[b]]
                for a in members_a
                for b in members_b
                if not (name_a == name_b and a == b)
            ]
            if cells:
                result[(name_a, name_b)] = float(np.mean(cells))
    return result


def crossover_distance(
    distances_m: list[float],
    values_a: list[float],
    values_b: list[float],
) -> float | None:
    """Distance at which series A stops exceeding series B (log interp).

    Used to locate where on-chip pairings sink below off-chip pairings
    as the antenna moves away (the Section V-B observation).  Returns
    ``None`` if the series never cross.
    """
    if not (len(distances_m) == len(values_a) == len(values_b)) or len(distances_m) < 2:
        raise ConfigurationError("need matched series of length >= 2")
    for (d0, a0, b0), (d1, a1, b1) in zip(
        zip(distances_m, values_a, values_b),
        zip(distances_m[1:], values_a[1:], values_b[1:]),
    ):
        gap0 = a0 - b0
        gap1 = a1 - b1
        if gap0 == 0:
            return d0
        if gap0 * gap1 < 0:
            fraction = abs(gap0) / (abs(gap0) + abs(gap1))
            return float(np.exp(np.log(d0) + fraction * (np.log(d1) - np.log(d0))))
    return None
