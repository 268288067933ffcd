"""Similarity-measure interface, registry, and caching.

A measure must implement :meth:`SimilarityMeasure.similarity_row`, which
returns ``sim(u, .)`` — the non-zero similarity scores from one user to all
others.  Pairwise :meth:`similarity` and the *similarity set* ``sim(u)``
(the paper's notation for users with non-zero similarity) derive from it.

Rows are the unit of computation because the row-wise consumers — the
exact recommender, the baselines, sensitivity analysis, cluster quality —
iterate a whole row at a time; computing rows directly lets each measure
use one BFS/DP sweep per user instead of O(|U|) pairwise calls.

The private scoring paths (recommender, release server, batch, sweep
engine, audit) do not read rows through :class:`SimilarityCache`: they
score from the cluster profile ``P = S·C`` of :mod:`repro.core.profile`,
built once from the whole kernel, and keep no per-user dict rows.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.exceptions import SimilarityError
from repro.graph.protocol import GraphLike
from repro.types import UserId

__all__ = [
    "SimilarityMeasure",
    "SimilarityCache",
    "register_measure",
    "get_measure",
    "list_measures",
]


class SimilarityMeasure(abc.ABC):
    """Base class for structural social-similarity measures.

    Subclasses must set :attr:`name` (a short registry key, e.g. ``"cn"``)
    and implement :meth:`similarity_row`.
    """

    #: Registry key; subclasses override.
    name: str = ""

    @abc.abstractmethod
    def similarity_row(self, graph: GraphLike, user: UserId) -> Dict[UserId, float]:
        """``sim(u, .)``: non-zero similarities from ``user`` to other users.

        The returned mapping must not contain ``user`` itself and must not
        contain zero or negative values.

        Raises:
            NodeNotFoundError: if ``user`` is not in the graph.
        """

    def similarity(self, graph: GraphLike, u: UserId, v: UserId) -> float:
        """``sim(u, v)``; zero when the users are not similar.

        The default implementation computes a full row; subclasses may
        override with a cheaper pairwise computation.
        """
        if u == v:
            return 0.0
        return self.similarity_row(graph, u).get(v, 0.0)

    def similarity_set(self, graph: GraphLike, user: UserId) -> FrozenSet[UserId]:
        """``sim(u)``: the set of users with *positive* similarity to ``user``.

        Rows are contractually free of zero entries, but the explicit
        threshold keeps the set well-defined even for a measure that leaks
        explicit zeros — and matches :meth:`SimilarityCache.similarity_set`.
        """
        return frozenset(
            v for v, s in self.similarity_row(graph, user).items() if s > 0.0
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SimilarityCache:
    """Memoises similarity rows for one (measure, graph) pair.

    The framework evaluates ``sim(u, .)`` once per user but several
    downstream consumers (recommender, error decomposition, sensitivity)
    each want the same rows; the cache makes those reads free after the
    first pass.  The cache assumes the graph is not mutated after wrapping —
    mutating it invalidates the cache silently, so wrap a finished snapshot.

    Measures with a vectorised builder (see
    :func:`repro.compute.supports_vectorized_kernel`) materialise every row
    at once on the :mod:`repro.compute` CSR path on first access (rows
    agree with ``similarity_row`` within 1e-9; CN / Graph Distance / Katz
    are bit-identical); every other measure computes each row with its
    own ``similarity_row``.
    """

    def __init__(self, measure: SimilarityMeasure, graph: GraphLike) -> None:
        from repro.compute.kernels import supports_vectorized_kernel
        from repro.compute.stats import ComputeStats

        self._measure = measure
        self._graph = graph
        self._rows: Dict[UserId, Dict[UserId, float]] = {}
        self._vectorized = supports_vectorized_kernel(measure)
        self._kernel_built = False
        self._last_stats: Optional[ComputeStats] = None

    @property
    def measure(self) -> SimilarityMeasure:
        return self._measure

    @property
    def graph(self) -> GraphLike:
        return self._graph

    @property
    def last_compute_stats(self):
        """The :class:`~repro.compute.stats.ComputeStats` of the most recent
        kernel build, or None when no vectorised build has run."""
        return self._last_stats

    def _build_kernel(self) -> None:
        """Materialise every row at once through :func:`repro.compute.build_kernel`."""
        from repro.compute.kernels import build_kernel
        from repro.compute.stats import ComputeStats

        stats = ComputeStats()
        kernel = build_kernel(self._graph, self._measure, stats=stats)
        self._last_stats = stats
        for user in kernel.users:
            if user not in self._rows:
                self._rows[user] = kernel.row(user)
        self._kernel_built = True

    def row(self, user: UserId) -> Dict[UserId, float]:
        """Cached ``sim(u, .)`` row (returned mapping must not be mutated)."""
        cached = self._rows.get(user)
        if cached is None:
            if self._vectorized and not self._kernel_built:
                self._build_kernel()
                cached = self._rows.get(user)
                if cached is not None:
                    return cached
                # User absent from the kernel (e.g. added after wrapping);
                # fall through to the per-row path.
            cached = self._measure.similarity_row(self._graph, user)
            self._rows[user] = cached
        return cached

    def similarity(self, u: UserId, v: UserId) -> float:
        """Cached ``sim(u, v)``."""
        if u == v:
            return 0.0
        return self.row(u).get(v, 0.0)

    def similarity_set(self, user: UserId) -> FrozenSet[UserId]:
        """``sim(u)``: users with positive similarity, from the cached row."""
        return frozenset(v for v, s in self.row(user).items() if s > 0.0)

    def precompute(self, users=None) -> None:
        """Warm the cache for ``users`` (default: the whole graph).

        Vectorised measures always materialise the full kernel; extra rows
        are kept — they were free.
        """
        if self._vectorized and not self._kernel_built:
            self._build_kernel()
        for user in self._graph.users() if users is None else users:
            self.row(user)

    def __len__(self) -> int:
        return len(self._rows)


_REGISTRY: Dict[str, Callable[[], SimilarityMeasure]] = {}


def register_measure(
    name: str, factory: Callable[[], SimilarityMeasure]
) -> None:
    """Register a measure factory under ``name`` (lowercase key).

    Raises:
        SimilarityError: if the name is already taken.
    """
    key = name.lower()
    if key in _REGISTRY:
        raise SimilarityError(f"similarity measure {name!r} already registered")
    _REGISTRY[key] = factory


def get_measure(name: str) -> SimilarityMeasure:
    """Instantiate a registered measure by name (case-insensitive).

    Raises:
        SimilarityError: if no such measure is registered.
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimilarityError(
            f"unknown similarity measure {name!r}; known measures: {known}"
        ) from None
    return factory()


def list_measures() -> List[str]:
    """Names of all registered measures, sorted."""
    return sorted(_REGISTRY)
