"""Instruction clustering with SAVAT as the distance metric.

Section III/VII: pairwise SAVAT measurement is O(N^2) in the number of
instructions, which does not scale to a full ISA; the paper proposes to
"cluster instruction opcodes using SAVAT as the distance metric, then
explore sequences using instruction class representatives".  This module
implements that proposal with hierarchical agglomerative clustering and
recovers the paper's observed four groups (off-chip, L2, arithmetic/L1,
DIV) from the Core 2 Duo matrix.
"""

from __future__ import annotations

import numpy as np

from repro.core.matrix import SavatMatrix
from repro.errors import ConfigurationError


def savat_distance_matrix(matrix: SavatMatrix) -> np.ndarray:
    """Turn a SAVAT matrix into a proper distance matrix.

    SAVAT is energy-like (squared-amplitude), so the distance between
    two events is ``sqrt`` of the SAVAT left after subtracting each
    event's own measurement floor — the A/A diagonal, which is error,
    not signal: ``d(A,B)^2 = max(D_AB - (D_AA + D_BB)/2, 0)``.  An event
    is then at distance zero from itself even though its A/A measurement
    reads a nonzero value.
    """
    symmetric = matrix.symmetrized()
    diagonal = np.diag(symmetric)
    self_noise = (diagonal[:, np.newaxis] + diagonal[np.newaxis, :]) / 2.0
    above_floor = np.clip(symmetric - self_noise, 0.0, None)
    np.fill_diagonal(above_floor, 0.0)
    return np.sqrt(above_floor)


def cluster_linkage(matrix: SavatMatrix, method: str = "average") -> np.ndarray:
    """SciPy linkage over the SAVAT-derived distances."""
    from scipy.cluster import hierarchy as scipy_hierarchy
    from scipy.spatial.distance import squareform

    distances = savat_distance_matrix(matrix)
    condensed = squareform(distances, checks=False)
    return scipy_hierarchy.linkage(condensed, method=method)


def check_num_groups(num_groups: int, count: int) -> None:
    """Raise :class:`ConfigurationError` unless ``1 <= num_groups <= count``."""
    if not 1 <= num_groups <= count:
        raise ConfigurationError(f"num_groups must be in [1, {count}], got {num_groups}")


def find_groups(
    matrix: SavatMatrix,
    num_groups: int = 4,
    method: str = "average",
) -> list[frozenset[str]]:
    """Partition the events into ``num_groups`` SAVAT clusters.

    Returns the groups sorted by size (largest first) then name, each a
    frozenset of event names.

    Raises
    ------
    ConfigurationError
        If ``num_groups`` is out of range.
    """
    check_num_groups(num_groups, len(matrix.events))
    from scipy.cluster import hierarchy as scipy_hierarchy

    linkage = cluster_linkage(matrix, method)
    labels = scipy_hierarchy.fcluster(linkage, t=num_groups, criterion="maxclust")
    groups: dict[int, set[str]] = {}
    for event, label in zip(matrix.events, labels):
        groups.setdefault(int(label), set()).add(event)
    return sorted(
        (frozenset(group) for group in groups.values()),
        key=lambda group: (-len(group), sorted(group)),
    )


def group_representatives(groups: list[frozenset[str]]) -> list[str]:
    """One representative event per cluster (alphabetical tie-break).

    Measuring only representatives turns an O(N^2) campaign into an
    O(K^2) one — the scaling fix the paper proposes for large ISAs.
    """
    return [sorted(group)[0] for group in groups]


def similarity_graph(matrix: SavatMatrix, threshold_zj: float | None = None):
    """A networkx graph whose edges connect hard-to-distinguish events.

    Events are joined when their symmetrized SAVAT is below
    ``threshold_zj`` (default: 2x the diagonal floor) — the connected
    components are exactly the "low intra-group SAVAT" groups of
    Section V-A.
    """
    import networkx as nx

    symmetric = matrix.symmetrized()
    floor = float(np.diag(symmetric).mean())
    if threshold_zj is None:
        threshold_zj = 2.0 * floor
    graph = nx.Graph()
    graph.add_nodes_from(matrix.events)
    count = len(matrix.events)
    for i in range(count):
        for j in range(i + 1, count):
            value = float(symmetric[i, j])
            if value <= threshold_zj:
                graph.add_edge(matrix.events[i], matrix.events[j], savat_zj=value)
    return graph
