"""Vectorised, sharded, cache-backed batch recommendation.

``PrivateSocialRecommender.recommend`` scores one user per call; for
producing recommendations for *every* user (the paper's deployment:
"outputs, for each target user, a personalized recommendation list"),
this module scores whole blocks of users with one dense product:

    estimates  =  P @ W_hat^T,    P = S @ C

where ``P`` is the cluster profile (:mod:`repro.core.profile`): the
all-pairs similarity kernel ``S`` times the 0/1 user-to-cluster
indicator ``C``; ``W_hat`` holds the released noisy averages.  The result
is identical to the per-user path — the tests assert bit-equal rankings —
but runs at BLAS speed, chunked to bound memory.

Two throughput layers sit on top of the profile:

- **A persistent similarity cache** (:mod:`repro.cache`): ``S`` reads
  only the *public* social graph, so it can be computed once, persisted
  as a checksummed artifact, and reused across runs and processes at
  zero privacy cost.  Pass a :class:`~repro.cache.store.SimilarityStore`
  to skip recomputation entirely on a warm cache.
- **User-sharded parallel execution**: with ``workers >= 2`` the target
  users are split into contiguous shards scored across a process pool.
  Each worker receives only its shard's ``P`` rows (users x clusters,
  far smaller than the kernel), never the kernel itself.  A shard whose
  worker fails is rescored in-parent, then per user — the same
  degradation ladder as the sequential mode.

Measures without a vectorised kernel (or with non-default cutoffs the
kernels do not cover) fall back to the per-user path transparently.
Every call returns a :class:`BatchResult` — a plain dict of
user -> :class:`~repro.types.RecommendationList` carrying a
:class:`BatchStats` with cache hit/miss counters, per-shard wall times,
and overall rows/sec.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.store import SimilarityStore
from repro.compute.kernels import build_kernel, supports_vectorized_kernel
from repro.compute.stats import ComputeStats
from repro.core.private import PrivateSocialRecommender
from repro.core.profile import ClusterProfile, cluster_profile, recommend_from_row
from repro.exceptions import ReproError
from repro.obs.adapters import publish_batch_stats
from repro.obs.spans import span
from repro.resilience.faults import fault_point
from repro.similarity.base import SimilarityMeasure
from repro.similarity.matrix import SimilarityMatrix
from repro.types import RecommendationList, UserId

__all__ = [
    "BatchResult",
    "BatchStats",
    "batch_recommend_all",
    "compute_similarity_kernel",
]


def _similarity_matrix_for(
    graph,
    measure: SimilarityMeasure,
    stats: Optional[ComputeStats] = None,
) -> Optional[SimilarityMatrix]:
    """The batch kernel for ``measure``, or None when unsupported.

    Construction goes through :func:`repro.compute.build_kernel`, like
    everywhere else a kernel is built.
    """
    if not supports_vectorized_kernel(measure):
        return None
    return build_kernel(graph, measure, stats=stats)


def compute_similarity_kernel(
    graph,
    measure: SimilarityMeasure,
    stats: Optional[ComputeStats] = None,
) -> SimilarityMatrix:
    """The all-pairs kernel for ``measure`` (cache-warming entry point).

    Raises:
        ReproError: when ``measure`` has no vectorised kernel with its
            current settings (see
            :func:`repro.compute.supports_vectorized_kernel`).
    """
    matrix = _similarity_matrix_for(graph, measure, stats=stats)
    if matrix is None:
        raise ReproError(
            f"measure {measure!r} has no vectorised similarity kernel"
        )
    return matrix


@dataclass
class BatchStats:
    """Perf counters for one :func:`batch_recommend_all` call.

    Attributes:
        mode: ``"parallel"``, ``"sequential"``, or ``"per-user"`` (no
            vectorised kernel, or the kernel failed outright).
        users_served: number of recommendation lists produced.
        wall_seconds: end-to-end wall time of the call.
        rows_per_second: ``users_served / wall_seconds``.
        num_shards: shards (parallel) or chunks (sequential) scored.
        shard_seconds: wall time per shard/chunk, in completion order.
        fallback_shards: shards/chunks that degraded off the pooled or
            vectorised path.
        fallback_users: users served by the per-user path (degraded
            shards plus zero-signal users routed through the ladder).
        cache_hits / cache_misses: similarity-store lookups during this
            call (both zero when no store was passed).
        kernel_seconds: time spent obtaining the similarity kernel
            (near zero on a warm cache).
        compute: the :class:`~repro.compute.stats.ComputeStats` of the
            kernel construction, when one ran during this call (None on a
            warm cache or the per-user path).
        tier_transitions: degradation-ladder transitions, keyed by edge
            (``"kernel->per-user"``, ``"pool->parent"``,
            ``"parent->per-user"``, ``"vectorized->per-user"``).
            ``fallback_shards``/``fallback_users`` count *work items*;
            this counts *transitions*, so a pool that degrades to the
            in-parent ladder mid-run is visible even when every shard
            still gets served.
    """

    mode: str = "sequential"
    users_served: int = 0
    wall_seconds: float = 0.0
    rows_per_second: float = 0.0
    num_shards: int = 0
    shard_seconds: List[float] = field(default_factory=list)
    fallback_shards: int = 0
    fallback_users: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    kernel_seconds: float = 0.0
    compute: Optional[ComputeStats] = None
    tier_transitions: Dict[str, int] = field(default_factory=dict)

    def record_transition(self, edge: str) -> None:
        """Count one degradation-ladder transition (e.g. ``"pool->parent"``)."""
        self.tier_transitions[edge] = self.tier_transitions.get(edge, 0) + 1


class BatchResult(Dict[UserId, RecommendationList]):
    """A dict of user -> recommendation list with a ``stats`` attribute.

    Behaves exactly like the plain dict previous versions returned;
    ``stats`` carries the :class:`BatchStats` perf counters.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = BatchStats()


def _score_rows(
    rows: np.ndarray,
    release_t: np.ndarray,
) -> Tuple[np.ndarray, List[int]]:
    """Utility estimates for a block of dense profile rows.

    Returns the ``(len(rows), num_items)`` estimate matrix plus the
    indices of rows with no similarity signal — those users must be
    served by the per-user degradation ladder so their reported tier
    matches ``recommender.recommend`` exactly.  Module-level so pool
    workers can run it under every start method.
    """
    estimates = rows @ release_t
    zero_rows = np.flatnonzero(~rows.any(axis=1)).tolist()
    return estimates, zero_rows


def batch_recommend_all(
    recommender: PrivateSocialRecommender,
    users: Optional[Iterable[UserId]] = None,
    n: Optional[int] = None,
    chunk_size: int = 512,
    *,
    store: Optional[SimilarityStore] = None,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> BatchResult:
    """Top-N recommendations for many users at once.

    Args:
        recommender: a *fitted* private recommender.
        users: target users (default: every social-graph user).
        n: list length (default: the recommender's ``n``).
        chunk_size: users per dense chunk on the sequential path; bounds
            peak memory at roughly ``chunk_size * num_items`` floats.
        store: optional persistent similarity cache; the kernel is
            loaded from (or written to) it instead of being recomputed,
            and hit/miss counters are reported on the result's stats.
        workers: with ``workers >= 2``, score contiguous user shards
            across a process pool; each worker receives its shard's
            profile rows.  Default (None or 1) stays in-process.
        shard_size: users per pool shard (default: spread the target
            users over ``4 * workers`` shards so a slow shard cannot
            stall the whole batch).  Kernel construction counters land
            on ``stats.compute``.

    Returns:
        :class:`BatchResult` — user -> :class:`RecommendationList`,
        identical to calling ``recommender.recommend`` per user, with
        perf counters on ``.stats``.

    Raises:
        NotFittedError: when the recommender has not been fitted.
        ReproError: if the recommender has no released weights.
        ValueError: for invalid ``n``, ``chunk_size``, ``workers``, or
            ``shard_size``.
    """
    with span("batch.recommend_all"):
        return _batch_recommend_all(
            recommender,
            users,
            n,
            chunk_size,
            store=store,
            workers=workers,
            shard_size=shard_size,
        )


def _batch_recommend_all(
    recommender: PrivateSocialRecommender,
    users: Optional[Iterable[UserId]] = None,
    n: Optional[int] = None,
    chunk_size: int = 512,
    *,
    store: Optional[SimilarityStore] = None,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> BatchResult:
    start_time = time.perf_counter()
    state = recommender.state
    weights = recommender.noisy_weights_
    clustering = recommender.clustering_
    if weights is None or clustering is None:
        raise ReproError("recommender has no released weights; fit it first")
    limit = recommender.n if n is None else n
    if limit < 1:
        raise ValueError(f"n must be >= 1, got {limit}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")

    target_users = list(users) if users is not None else state.social.users()
    results = BatchResult()
    stats = results.stats
    compute_stats = ComputeStats()

    kernel_start = time.perf_counter()
    try:
        fault_point("batch.kernel")
        if store is not None and supports_vectorized_kernel(recommender.measure):
            before = store.stats.snapshot()
            lookup = store.get_or_compute(
                state.social,
                recommender.measure,
                lambda: compute_similarity_kernel(
                    state.social, recommender.measure, stats=compute_stats
                ),
            )
            sim_matrix: Optional[SimilarityMatrix] = lookup.matrix
            stats.cache_hits = store.stats.hits - before.hits
            stats.cache_misses = store.stats.misses - before.misses
        else:
            sim_matrix = _similarity_matrix_for(
                state.social, recommender.measure, stats=compute_stats
            )
    except Exception:
        # A failing kernel degrades the whole batch to the (slower but
        # independent) per-user path rather than killing the run.
        sim_matrix = None
        stats.record_transition("kernel->per-user")
    stats.kernel_seconds = time.perf_counter() - kernel_start
    if compute_stats.backend:  # a construction actually ran
        stats.compute = compute_stats

    if sim_matrix is None:
        # No vectorised kernel: fall back to the per-user path.
        stats.mode = "per-user"
        for user in target_users:
            results[user] = recommender.recommend(user, n=limit)
        stats.fallback_users = len(target_users)
        _finalise_stats(stats, len(results), start_time)
        return results

    profile = cluster_profile(sim_matrix, clustering)
    release_t = np.ascontiguousarray(weights.matrix.T)  # (clusters x items)

    parallel = workers is not None and workers > 1 and len(target_users) > 1
    if parallel:
        _run_parallel(
            recommender,
            results,
            target_users,
            limit,
            profile,
            release_t,
            workers,
            shard_size,
        )
    else:
        _run_sequential(
            recommender, results, target_users, limit, profile, release_t, chunk_size
        )
    _finalise_stats(stats, len(results), start_time)
    return results


def _finalise_stats(stats: BatchStats, served: int, start_time: float) -> None:
    stats.users_served = served
    stats.wall_seconds = time.perf_counter() - start_time
    if stats.wall_seconds > 0:
        stats.rows_per_second = served / stats.wall_seconds
    # Mirror the finished call's counters into the active telemetry
    # registry (no-op when observability is disabled).
    publish_batch_stats(stats)


def _merge_block(
    recommender: PrivateSocialRecommender,
    results: BatchResult,
    block_users: Sequence[UserId],
    estimates: np.ndarray,
    zero_rows: Sequence[int],
    limit: int,
) -> None:
    """Turn a scored block into recommendation lists.

    Zero-signal users take the degradation ladder through
    :func:`~repro.core.profile.recommend_from_row`, the same code
    ``recommender.recommend`` runs for them, so their lists and reported
    tiers match it exactly without building the recommender's own
    profile.
    """
    weights = recommender.noisy_weights_
    zero_set = set(zero_rows)
    for i, user in enumerate(block_users):
        if i in zero_set:
            results[user] = recommend_from_row(user, weights, None, limit)
            results.stats.fallback_users += 1
        else:
            results[user] = recommender._recommend_from_vector(
                user, weights.items, estimates[i, :], limit
            )


def _run_sequential(
    recommender: PrivateSocialRecommender,
    results: BatchResult,
    target_users: Sequence[UserId],
    limit: int,
    profile: ClusterProfile,
    release_t: np.ndarray,
    chunk_size: int,
) -> None:
    """The in-process path: one pass of chunked dense products."""
    stats = results.stats
    stats.mode = "sequential"
    for start in range(0, len(target_users), chunk_size):
        chunk = target_users[start : start + chunk_size]
        chunk_start = time.perf_counter()
        stats.num_shards += 1
        with span("batch.chunk"):
            try:
                fault_point("batch.chunk")
                estimates, zero_rows = _score_rows(profile.rows(chunk), release_t)
                _merge_block(
                    recommender, results, chunk, estimates, zero_rows, limit
                )
            except Exception:
                # A chunk that fails mid-product (bad BLAS call, injected
                # fault, memory pressure) degrades to the per-user path for
                # just that chunk; the rest of the batch stays vectorised.
                stats.fallback_shards += 1
                stats.record_transition("vectorized->per-user")
                for user in chunk:
                    results[user] = recommender.recommend(user, n=limit)
                stats.fallback_users += len(chunk)
        stats.shard_seconds.append(time.perf_counter() - chunk_start)


def _run_parallel(
    recommender: PrivateSocialRecommender,
    results: BatchResult,
    target_users: Sequence[UserId],
    limit: int,
    profile: ClusterProfile,
    release_t: np.ndarray,
    workers: int,
    shard_size: Optional[int],
) -> None:
    """The pooled path: contiguous user shards scored across processes."""
    stats = results.stats
    stats.mode = "parallel"
    if shard_size is None:
        shard_size = max(1, math.ceil(len(target_users) / (workers * 4)))
    shards = [
        list(target_users[start : start + shard_size])
        for start in range(0, len(target_users), shard_size)
    ]
    rows_per_shard = [profile.rows(shard) for shard in shards]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_score_rows, rows, release_t) for rows in rows_per_shard]
        for shard, rows, future in zip(shards, rows_per_shard, futures):
            shard_start = time.perf_counter()
            stats.num_shards += 1
            with span("batch.shard"):
                try:
                    fault_point("batch.shard")
                    estimates, zero_rows = future.result()
                except Exception:
                    # Worker died or was told to fail: rescore this shard
                    # in-parent (same math, same result), then per-user if
                    # even that fails.
                    stats.fallback_shards += 1
                    stats.record_transition("pool->parent")
                    try:
                        estimates, zero_rows = _score_rows(rows, release_t)
                    except Exception:
                        stats.record_transition("parent->per-user")
                        for user in shard:
                            results[user] = recommender.recommend(user, n=limit)
                        stats.fallback_users += len(shard)
                        stats.shard_seconds.append(time.perf_counter() - shard_start)
                        continue
                _merge_block(recommender, results, shard, estimates, zero_rows, limit)
            stats.shard_seconds.append(time.perf_counter() - shard_start)
