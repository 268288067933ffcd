"""Approximation / perturbation error decomposition (paper Eqs. 5 and 6).

For a utility estimate computed from noisy cluster averages, the total
error splits into:

- *approximation error* (Eq. 6) — deterministic, caused by replacing each
  edge weight with its cluster average:

      AE_u^i = sum_c sum_{v in sim(u) & c} sim(u, v) * (w(v, i) - c_bar)

  where ``c_bar`` is the *noise-free* cluster average,
- *expected perturbation error* (Eq. 5, right-hand term) — stochastic,
  caused by the Laplace noise on each cluster average:

      PE_u^i = sum_c (sqrt(2) / (eps * |c|)) * sum_{v in sim(u) & c} sim(u, v)

The clustering strategy is judged by how much perturbation error it removes
per unit of approximation error it introduces; the ablation benchmarks plot
exactly these two quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.community.clustering import Clustering
from repro.graph.preference_graph import PreferenceGraph
from repro.privacy.mechanisms import validate_epsilon
from repro.types import ItemId, UserId

__all__ = [
    "approximation_error",
    "expected_perturbation_error",
    "ErrorDecomposition",
]


def _cluster_average(
    preferences: PreferenceGraph,
    clustering: Clustering,
    cluster_index: int,
    item: ItemId,
) -> float:
    members = clustering.members_of(cluster_index)
    total = sum(preferences.weight(v, item) for v in members)
    return total / len(members)


def approximation_error(
    similarity_row: Mapping[UserId, float],
    preferences: PreferenceGraph,
    clustering: Clustering,
    item: ItemId,
) -> float:
    """The signed approximation error ``AE_u^i`` of Eq. 6.

    Args:
        similarity_row: ``sim(u, .)`` for the target user.
        preferences: the (true) preference graph.
        clustering: the user clustering.
        item: the item whose utility estimate is being analysed.

    Users in the similarity row that the clustering does not cover are
    ignored (they cannot contribute to a cluster-based estimate).
    """
    return _approximation_error(similarity_row, preferences, clustering, item, {})


def _approximation_error(
    similarity_row: Mapping[UserId, float],
    preferences: PreferenceGraph,
    clustering: Clustering,
    item: ItemId,
    averages: Dict[Tuple[int, ItemId], float],
) -> float:
    """:func:`approximation_error` with ``c_bar`` memoised in ``averages``.

    ``averages`` maps ``(cluster, item)`` to the noise-free cluster
    average; callers evaluating many (user, item) pairs on one preference
    graph and clustering share one dict, so each average is computed once.
    """
    per_cluster_sim: Dict[int, float] = {}
    per_cluster_weighted: Dict[int, float] = {}
    for v, score in similarity_row.items():
        if v not in clustering:
            continue
        c = clustering.cluster_of(v)
        per_cluster_sim[c] = per_cluster_sim.get(c, 0.0) + score
        per_cluster_weighted[c] = (
            per_cluster_weighted.get(c, 0.0) + score * preferences.weight(v, item)
        )
    error = 0.0
    for c, sim_sum in per_cluster_sim.items():
        c_bar = averages.get((c, item))
        if c_bar is None:
            c_bar = averages[(c, item)] = _cluster_average(
                preferences, clustering, c, item
            )
        error += per_cluster_weighted[c] - sim_sum * c_bar
    return error


def expected_perturbation_error(
    similarity_row: Mapping[UserId, float],
    clustering: Clustering,
    epsilon: float,
) -> float:
    """The expected perturbation error term of Eq. 5.

    ``sum_c (sqrt(2)/(eps*|c|)) * sum_{v in sim(u) & c} sim(u, v)``

    Returns 0.0 for ``epsilon = inf`` (no noise).

    Raises:
        InvalidEpsilonError: for an invalid epsilon.
    """
    epsilon = validate_epsilon(epsilon)
    if math.isinf(epsilon):
        return 0.0
    per_cluster_sim: Dict[int, float] = {}
    for v, score in similarity_row.items():
        if v not in clustering:
            continue
        c = clustering.cluster_of(v)
        per_cluster_sim[c] = per_cluster_sim.get(c, 0.0) + score
    return sum(
        (math.sqrt(2.0) / (epsilon * clustering.size_of(c))) * sim_sum
        for c, sim_sum in per_cluster_sim.items()
    )


@dataclass(frozen=True)
class ErrorDecomposition:
    """Both error components for one utility estimate.

    Attributes:
        approximation: signed AE_u^i (Eq. 6).
        expected_perturbation: expected |noise| contribution (Eq. 5).
    """

    approximation: float
    expected_perturbation: float

    @property
    def expected_total(self) -> float:
        """|approximation| + expected perturbation — an upper-bound proxy
        for the expected absolute error of the estimate."""
        return abs(self.approximation) + self.expected_perturbation

    @classmethod
    def compute(
        cls,
        similarity_row: Mapping[UserId, float],
        preferences: PreferenceGraph,
        clustering: Clustering,
        item: ItemId,
        epsilon: float,
    ) -> "ErrorDecomposition":
        """Evaluate both components for one (user, item) utility estimate."""
        return cls(
            approximation=approximation_error(
                similarity_row, preferences, clustering, item
            ),
            expected_perturbation=expected_perturbation_error(
                similarity_row, clustering, epsilon
            ),
        )
