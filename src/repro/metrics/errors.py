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
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.community.clustering import Clustering
from repro.graph.preference_graph import PreferenceGraph
from repro.privacy.mechanisms import validate_epsilon
from repro.types import ItemId, UserId

__all__ = [
    "approximation_error",
    "expected_perturbation_error",
    "ErrorDecomposition",
]


def _owned(preferences: PreferenceGraph, user: UserId) -> Mapping[ItemId, float]:
    """``user``'s preference edges, empty for users outside the graph."""
    return preferences.items_of(user) if preferences.has_user(user) else {}


def _fill_cluster_averages(
    preferences: PreferenceGraph,
    clustering: Clustering,
    cluster_index: int,
    items: Sequence[ItemId],
    averages: Dict[Tuple[int, ItemId], float],
) -> None:
    """Memoise ``c_bar`` for every item of ``items`` this cluster lacks.

    One pass over the members' own edges, summed in member order; absent
    edges are exact ``+0.0`` terms and are skipped.
    """
    missing = [item for item in items if (cluster_index, item) not in averages]
    totals = dict.fromkeys(missing, 0.0)
    members = clustering.members_of(cluster_index)
    for v in members:
        owned = _owned(preferences, v)
        for item in missing:
            weight = owned.get(item)
            if weight:
                totals[item] += weight
    for item in missing:
        averages[(cluster_index, item)] = totals[item] / len(members)


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
    return _approximation_errors(similarity_row, preferences, clustering, [item], {})[0]


def _approximation_errors(
    similarity_row: Mapping[UserId, float],
    preferences: PreferenceGraph,
    clustering: Clustering,
    items: Sequence[ItemId],
    averages: Dict[Tuple[int, ItemId], float],
) -> List[float]:
    """:func:`approximation_error` for each of ``items``, one row walk.

    The row is walked once: it builds the per-cluster similarity sums and,
    from each neighbour's own edges, the per-(cluster, item) weighted
    sums, both in row order.  Absent edges are exact ``+0.0`` terms and
    are skipped, so every value equals the per-item formula bit for bit.

    ``averages`` maps ``(cluster, item)`` to the noise-free cluster
    average; callers evaluating many users on one preference graph and
    clustering share one dict, so each average is computed once.
    """
    sim_sum: Dict[int, float] = {}
    weighted: Dict[Tuple[int, ItemId], float] = {}
    for v, score in similarity_row.items():
        if v not in clustering:
            continue
        c = clustering.cluster_of(v)
        sim_sum[c] = sim_sum.get(c, 0.0) + score
        owned = _owned(preferences, v)
        for item in items:
            weight = owned.get(item)
            if weight:
                key = (c, item)
                weighted[key] = weighted.get(key, 0.0) + score * weight
    errors = []
    for item in items:
        error = 0.0
        for c, total in sim_sum.items():
            c_bar = averages.get((c, item))
            if c_bar is None:
                _fill_cluster_averages(preferences, clustering, c, items, averages)
                c_bar = averages[(c, item)]
            error += weighted.get((c, item), 0.0) - total * c_bar
        errors.append(error)
    return errors


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
