"""Per-edge python accumulation of the exact cluster sums (Algorithm 1, lines 2–5).

The reference for :func:`repro.core.cluster_weights.cluster_item_averages`,
which reduces the same clipped edges as one CSR product.  Both walk the
edges through the library's ``_clamped_user_items``, so they agree on
exactly which edges count.
"""

from __future__ import annotations

import numpy as np

from repro.community.clustering import Clustering
from repro.core.cluster_weights import _clamped_user_items
from repro.graph.preference_graph import PreferenceGraph

__all__ = ["python_cluster_averages", "python_exact_sums"]


def python_exact_sums(
    preferences: PreferenceGraph,
    clustering: Clustering,
    max_weight: float = 1.0,
    protection: str = "edge",
    user_clamp: int = 50,
) -> np.ndarray:
    """The ``(num_items, num_clusters)`` clipped sums, one Python pass over edges."""
    item_index = {item: i for i, item in enumerate(preferences.items())}
    sums = np.zeros((len(item_index), clustering.num_clusters))
    for column, owned in _clamped_user_items(
        preferences, clustering, item_index, protection, user_clamp
    ):
        for item, weight in owned.items():
            sums[item_index[item], column] += min(weight, max_weight)
    return sums


def python_cluster_averages(
    preferences: PreferenceGraph, clustering: Clustering, **kwargs
) -> np.ndarray:
    """The exact average matrix: :func:`python_exact_sums` over cluster sizes."""
    sums = python_exact_sums(preferences, clustering, **kwargs)
    if not clustering.num_clusters:
        return sums
    return sums / np.asarray(clustering.sizes(), dtype=float)[np.newaxis, :]
