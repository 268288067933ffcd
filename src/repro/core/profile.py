"""The cluster profile ``P = S·C``: the one scoring core of module A_R.

Algorithm 1 scores a user as

    mu_hat_u = sum_c sim_sum(u, c) * w_hat_c,

and ``sim_sum`` is the matrix ``P = S·C`` — the similarity kernel ``S``
times the 0/1 user-to-cluster indicator ``C``.  ``P`` reads only the
public social graph and the clustering, so it costs zero epsilon; it is
sparse with ``nnz(P) <= nnz(S)`` and usually far smaller.

Every scoring path builds ``P`` here and reads rows out of it: the
recommender and the release server per request (row lookup, ``W·p``,
top-N), batch serving and the sweep engine as chunked ``P·Wᵀ``, and the
privacy audit for its observer.  A user outside the kernel (not in the
social graph) has no row and is served by the degradation ladder.

``P`` sums each row of ``S`` in kernel column order, which is the
canonical value: with the vectorised kernel it equals the per-user
similarity-row loop bit for bit; with the python reference kernel
(measures with no vectorised builder) it agrees within rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.community.clustering import Clustering
from repro.compute import kernels
from repro.core.base import top_n_from_vector
from repro.obs.registry import incr as obs_incr
from repro.resilience.degradation import TIER_PERSONALIZED, degradation_estimates
from repro.similarity.matrix import SimilarityMatrix
from repro.types import RecommendationList, UserId, as_recommendation_list

__all__ = [
    "ClusterProfile",
    "cluster_indicator",
    "cluster_profile",
    "profile_kernel",
    "recommend_from_row",
]


def cluster_indicator(users: Sequence[UserId], clustering: Clustering) -> sp.csr_matrix:
    """The 0/1 user-to-cluster indicator ``C`` over ``users``.

    Row order follows ``users``; a user outside ``clustering`` gets an
    all-zero row.
    """
    rows, cols = [], []
    for position, user in enumerate(users):
        if user in clustering:
            rows.append(position)
            cols.append(clustering.cluster_of(user))
    return sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(len(users), clustering.num_clusters),
    )


@dataclass(frozen=True)
class ClusterProfile:
    """``P = S·C`` as CSR over the kernel's user order.

    Attributes:
        matrix: ``(kernel users x clusters)`` similarity mass per cluster.
        index: user -> row, shared with the kernel it was built from.
    """

    matrix: sp.csr_matrix
    index: Dict[UserId, int]

    @property
    def num_clusters(self) -> int:
        return int(self.matrix.shape[1])

    def row(self, user: UserId) -> Optional[np.ndarray]:
        """``sim_sum(user, .)`` as a dense vector; None outside the kernel."""
        i = self.index.get(user)
        if i is None:
            return None
        matrix = self.matrix
        start, stop = matrix.indptr[i], matrix.indptr[i + 1]
        dense = np.zeros(self.num_clusters)
        dense[matrix.indices[start:stop]] = matrix.data[start:stop]
        return dense

    def rows(self, users: Sequence[UserId]) -> np.ndarray:
        """Dense ``(len(users) x clusters)`` rows; zero rows outside the kernel."""
        positions = np.array([self.index.get(u, -1) for u in users], dtype=np.intp)
        dense = np.zeros((len(positions), self.num_clusters))
        present = positions >= 0
        if present.any():
            dense[present] = self.matrix[positions[present]].toarray()
        return dense


def cluster_profile(kernel: SimilarityMatrix, clustering: Clustering) -> ClusterProfile:
    """``P = S·C`` for ``kernel`` under ``clustering``."""
    indicator = cluster_indicator(kernel.users, clustering)
    return ClusterProfile(
        matrix=sp.csr_matrix(kernel.matrix @ indicator), index=kernel.index
    )


def profile_kernel(graph, measure, *, store=None):
    """The similarity kernel ``S`` a profile is built from.

    Goes through the persistent ``store`` when one is given and the
    measure has a vectorised kernel; otherwise builds it with
    :func:`~repro.compute.kernels.build_kernel`, which takes the per-row
    python kernel for measures without a vectorised builder.
    """
    # Looked up on the module per call, so instrumentation that wraps the
    # module's entry points sees every kernel build.
    def build() -> SimilarityMatrix:
        return kernels.build_kernel(graph, measure)

    if store is not None and kernels.supports_vectorized_kernel(measure):
        return store.get_or_compute(graph, measure, build).matrix
    return build()


def recommend_from_row(
    user: UserId,
    weights,
    row: Optional[np.ndarray],
    n: int,
    max_tier: str = TIER_PERSONALIZED,
) -> RecommendationList:
    """Top-N for ``user`` from their profile row and a noisy release.

    A row with signal is served personalized (``W·p`` then top-N); a
    missing or all-zero row falls down the degradation ladder from
    ``max_tier`` (:func:`~repro.resilience.degradation.degradation_estimates`).
    Every tier is post-processing of the released ``weights``.
    """
    if row is not None and row.any():
        obs_incr(f"serve.tier.{TIER_PERSONALIZED}")
        return top_n_from_vector(user, weights.items, weights.matrix @ row, n)
    estimates, tier = degradation_estimates(weights, user, max_tier=max_tier)
    if estimates is None:
        return as_recommendation_list(user, [], tier=tier)
    return top_n_from_vector(user, weights.items, estimates, n, tier=tier)
