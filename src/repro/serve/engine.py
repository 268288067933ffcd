"""One release generation bound to a server, with in-flight refcounting.

Hot swap needs two properties from the thing it swaps: the flip must be
a single atomic reference assignment, and the old generation must be
drainable — the swapper has to know when every request that started
against release vN has finished, so vN's resources (its mmap, its
cluster profile) can be let go with **zero failed in-flight requests**.
:class:`ServingEngine` provides both: it wraps a
:class:`~repro.core.persistence.ReleaseServer` for one loaded release
and counts requests in flight against it.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.persistence import PublishedRelease, ReleaseServer
from repro.graph.protocol import GraphLike
from repro.resilience.degradation import TIER_PERSONALIZED
from repro.similarity.base import SimilarityMeasure
from repro.types import RecommendationList, UserId

__all__ = ["ServingEngine"]


class ServingEngine:
    """A refcounted serving handle over one release generation.

    Args:
        release: the loaded (and verified) release artifact.
        social: the public social graph queries are personalized against.
        measure: similarity measure override; defaults to the release's
            recorded measure.
        generation: monotonically increasing swap generation, reported
            on every response.
        path: where the release was loaded from (None for in-memory
            releases), reported by ``/health`` and swap results.
        store: optional persistent
            :class:`~repro.cache.store.SimilarityStore` the kernel is
            warmed through.
        warm: build the cluster profile ``P = S·C`` at construction —
            i.e. during the initial load or the background phase of a
            hot swap — so no request (and no thundering herd of first
            requests) pays the kernel build.
    """

    def __init__(
        self,
        release: PublishedRelease,
        social: GraphLike,
        measure: Optional[SimilarityMeasure] = None,
        generation: int = 0,
        path: Optional[str] = None,
        store=None,
        warm: bool = True,
    ) -> None:
        self.release = release
        self.generation = generation
        self.path = path
        self.server: ReleaseServer = release.server(social, measure)
        if warm:
            self.server.warm(store=store)
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Requests currently executing against this generation."""
        with self._lock:
            return self._inflight

    def acquire(self) -> "ServingEngine":
        """Count one request in flight against this generation."""
        with self._lock:
            self._inflight += 1
        return self

    def release_ref(self) -> None:
        """Finish one in-flight request; wakes a draining swapper."""
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release_ref() without a matching acquire()")
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    def wait_drained(self, timeout_s: Optional[float] = None) -> bool:
        """Block until no request is in flight; True when fully drained."""
        with self._lock:
            if self._inflight == 0:
                return True
            self._drained.wait_for(lambda: self._inflight == 0, timeout=timeout_s)
            return self._inflight == 0

    def recommend(
        self, user: UserId, n: int = 10, max_tier: str = TIER_PERSONALIZED
    ) -> RecommendationList:
        """Serve one request from this generation (see ReleaseServer)."""
        return self.server.recommend(user, n, max_tier=max_tier)

    def describe(self) -> dict:
        """JSON-representable summary for ``/health`` and swap results."""
        weights = self.release.weights
        return {
            "generation": self.generation,
            "path": self.path,
            "epsilon": None
            if weights.epsilon == float("inf")
            else weights.epsilon,
            "measure": self.release.measure_name,
            "num_items": len(weights.items),
            "num_clusters": weights.clustering.num_clusters,
            "num_users": weights.clustering.num_users,
        }
