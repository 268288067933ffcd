"""The Louvain method for community detection, with multi-level refinement.

This is a from-scratch implementation of the algorithm the paper adopts for
its clustering phase:

- greedy local moving of nodes between communities to maximise modularity
  (Blondel et al., "Fast unfolding of communities in large networks", 2008),
- aggregation of each community into a super-node and repetition on the
  coarser graph, until modularity stops improving,
- the multi-level refinement step of Rotta & Noack (JEA 2011): after the
  hierarchy is built, the partition is projected back down level by level
  and local moving re-runs at every level, which stabilises the output
  under different initial node orderings — exactly why the paper adds it.

The paper runs Louvain 10 times with different random node orderings and
keeps the most modular result; :func:`best_louvain_clustering` packages
that protocol.

The algorithm runs on flat numpy arrays (CSR-style
``indptr``/``indices``/``weights``, a node→community vector, community
weight accumulators).  Its semantic reference is a dict-of-dicts
implementation kept as a test oracle (``tests/oracles/louvain_dict.py``),
which drives the same level loop through its own dispatch table.
Tie-breaking is replicated exactly — candidate communities are visited in
first-appearance order and compared with the same ``> best + 1e-12`` rule
— and every edge weight in the hierarchy is an integer-valued float (sums
of 1.0), so all gain arithmetic is exact and the two produce **identical
partitions** for the same rng (property-tested).

A call converts the graph once, and every restart of
:func:`best_louvain_clustering` reuses that base graph: runs change only
their node→community vectors.  The base comes from the graph's shared CSR
export, and each flat graph caches its per-node neighbor runs as builtin
lists for the sequential move scan; on unit-weight levels that scan counts
neighbor communities as integers.
"""

from __future__ import annotations

from collections import _count_elements  # the C counter behind Counter.update
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.community.clustering import Clustering
from repro.community.modularity import modularity
from repro.compute.adjacency import adjacency_csr
from repro.graph.protocol import GraphLike
from repro.obs.registry import incr as obs_incr
from repro.obs.spans import span
from repro.types import UserId

__all__ = ["louvain", "best_louvain_clustering", "LouvainResult"]

# Minimum modularity improvement for another level of aggregation.
_MIN_LEVEL_GAIN = 1e-7


class _FlatGraph:
    """CSR-style weighted graph across Louvain's aggregation levels.

    Per-node neighbor runs (``indices[indptr[u]:indptr[u+1]]``) keep the
    exact insertion order of the dict-based oracle's adjacency, so
    first-appearance community iteration — the tie-breaking order — is
    identical between the two.  A graph is never mutated once built, so
    restarts share it and its lazily built caches.
    """

    __slots__ = (
        "indptr", "indices", "weights", "loops", "total_weight", "_wdeg", "_runs"
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        loops: np.ndarray,
        total_weight: float,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.loops = loops
        self.total_weight = total_weight
        self._wdeg: Optional[np.ndarray] = None
        self._runs: Optional[Tuple[bool, List[List[Any]]]] = None

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    def weighted_degrees(self) -> np.ndarray:
        """Per-node weighted degree, loops counted twice (cached)."""
        if self._wdeg is None:
            n = self.num_nodes
            wdeg = np.zeros(n)
            src = np.repeat(np.arange(n), np.diff(self.indptr))
            np.add.at(wdeg, src, self.weights)
            self._wdeg = wdeg + 2.0 * self.loops
        return self._wdeg

    def neighbor_runs(self) -> Tuple[bool, List[List[Any]]]:
        """Each node's neighbor run as a builtin list (cached).

        Returns ``(unit, runs)``: when every edge weight is exactly 1.0,
        ``unit`` is True and a run holds the neighbor indices alone;
        otherwise a run holds ``(neighbor, weight)`` pairs.  Both keep
        the CSR neighbor order.
        """
        if self._runs is None:
            ptr = self.indptr.tolist()
            idx = self.indices.tolist()
            unit = bool((self.weights == 1.0).all())
            if unit:
                runs = [idx[ptr[i] : ptr[i + 1]] for i in range(self.num_nodes)]
            else:
                wts = self.weights.tolist()
                runs = [
                    list(zip(idx[ptr[i] : ptr[i + 1]], wts[ptr[i] : ptr[i + 1]]))
                    for i in range(self.num_nodes)
                ]
            self._runs = (unit, runs)
        return self._runs

    @classmethod
    def from_social_graph(
        cls, graph: GraphLike
    ) -> Tuple["_FlatGraph", List[UserId]]:
        """Convert a social graph; returns the graph and the node-id order.

        Built from the graph's shared CSR export, permuted into
        ``graph.users()`` order with sorted column indices.  Every
        neighbor run is then ascending in node index: the order the dict
        oracle's canonical sorted-edge ingest produces, for a
        ``SocialGraph`` and a mmap-backed ``BigCSRGraph`` alike.
        """
        users = graph.users()
        n = len(users)
        adjacency = adjacency_csr(graph)
        matrix = adjacency.matrix
        if not (isinstance(users, range) and users == adjacency.users):
            index = adjacency.index
            perm = np.fromiter((index[u] for u in users), np.int64, n)
            matrix = matrix[perm][:, perm]
            matrix.sort_indices()
        indptr = np.asarray(matrix.indptr, dtype=np.int64)
        indices = np.asarray(matrix.indices, dtype=np.int64)
        weights = np.ones(len(indices))
        return cls(indptr, indices, weights, np.zeros(n), float(graph.num_edges)), users


def _one_level_flat(
    graph: _FlatGraph,
    node2com: np.ndarray,
    rng: np.random.Generator,
) -> bool:
    """Run local moving until no node move improves modularity.

    ``node2com`` is modified in place; returns True when at least one move
    happened.  The weighted-degree vector and the community-degree
    accumulator are computed vectorised once.  The sequential move scan itself runs over
    the graph's cached builtin-list neighbor runs: local moving is
    inherently order-dependent, and element reads on lists avoid
    per-access numpy scalar boxing while holding the exact same float64
    values.

    Candidate communities are visited in first-appearance order over the
    node's neighbor run — the order the dict oracle iterates
    ``links_to_com`` — and every link sum and community degree is an
    integer-valued float, so gains, comparisons, and therefore moves are
    bit-identical to the oracle's.  On a unit-weight graph the link
    sums are integer counts: ``count - x`` equals ``float(count) - x``
    for every count below 2**53, so the gains are the same floats.
    """
    m = graph.total_weight
    if m <= 0.0:
        return False

    n = graph.num_nodes
    wdeg_arr = graph.weighted_degrees()
    com_degree_arr = np.zeros(n)
    np.add.at(com_degree_arr, node2com, wdeg_arr)

    order_arr = np.arange(n)
    rng.shuffle(order_arr)

    unit, runs = graph.neighbor_runs()
    wdeg = wdeg_arr.tolist()
    com_degree = com_degree_arr.tolist()
    coms = node2com.tolist()
    com_of = coms.__getitem__
    order = order_arr.tolist()
    two_m = 2.0 * m

    moved_any = False
    improved = True
    while improved:
        improved = False
        for node in order:
            com = coms[node]
            k_i = wdeg[node]
            k_i_over_2m = k_i / two_m

            links_to_com: Dict[int, Any] = {}
            if unit:
                _count_elements(links_to_com, map(com_of, runs[node]))
            else:
                links_get = links_to_com.get
                for nbr, weight in runs[node]:
                    c = coms[nbr]
                    links_to_com[c] = links_get(c, 0.0) + weight
            if len(links_to_com) == 1 and com in links_to_com:
                continue  # no other candidate; the degree round trip is exact

            com_degree[com] -= k_i
            best_gain = links_to_com.get(com, 0) - com_degree[com] * k_i_over_2m
            best_com = com
            for c, dnc in links_to_com.items():
                if c == com:
                    continue
                gain = dnc - com_degree[c] * k_i_over_2m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_com = c

            com_degree[best_com] += k_i
            if best_com != com:
                coms[node] = best_com
                improved = True
                moved_any = True
    node2com[:] = coms
    return moved_any


def _renumber_flat(node2com: np.ndarray) -> Tuple[np.ndarray, int]:
    """Map community labels to 0..k-1 in order of first appearance."""
    uniq, first, inverse = np.unique(
        node2com, return_index=True, return_inverse=True
    )
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(uniq), dtype=np.int64)
    return rank[inverse], len(uniq)


def _induced_flat(
    graph: _FlatGraph, node2com: np.ndarray, num_coms: int
) -> _FlatGraph:
    """Collapse communities into super-nodes on flat arrays.

    Coarse neighbor runs are emitted in first appearance order of each
    inter-community pair over the fine-edge scan — the same insertion
    order the dict oracle produces — and all weight sums are integer
    accumulations, so the coarse graph is indistinguishable from the
    oracle's.
    """
    n = graph.num_nodes
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    keep = graph.indices >= src  # count each undirected edge once
    edge_u = node2com[src[keep]]
    edge_v = node2com[graph.indices[keep]]
    edge_w = graph.weights[keep]

    loops = np.zeros(num_coms)
    np.add.at(loops, node2com, graph.loops)
    intra = edge_u == edge_v
    np.add.at(loops, edge_u[intra], edge_w[intra])

    inter = ~intra
    lo = np.minimum(edge_u[inter], edge_v[inter])
    hi = np.maximum(edge_u[inter], edge_v[inter])
    pair_key = lo.astype(np.int64) * np.int64(num_coms) + hi.astype(np.int64)
    uniq, first, inverse = np.unique(
        pair_key, return_index=True, return_inverse=True
    )
    pair_weight = np.bincount(inverse, weights=edge_w[inter])

    # Both directions of each pair, pairs in first-appearance order; a
    # stable sort by source keeps that order inside every neighbor run.
    seq = np.argsort(first, kind="stable")
    com_a, com_b = np.divmod(uniq[seq], num_coms)
    src = np.column_stack((com_a, com_b)).ravel()
    dst = np.column_stack((com_b, com_a)).ravel()
    by_src = np.argsort(src, kind="stable")
    indptr = np.zeros(num_coms + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_coms), out=indptr[1:])
    weights = np.repeat(pair_weight[seq], 2)[by_src]
    return _FlatGraph(indptr, dst[by_src], weights, loops, graph.total_weight)


def _flat_partition_flat(
    levels: List[np.ndarray], num_base_nodes: int
) -> np.ndarray:
    """Compose per-level assignments into a base-node -> community map."""
    assignment = np.arange(num_base_nodes, dtype=np.int64)
    for level in levels:
        assignment = level[assignment]
    return assignment


def _partition_modularity_flat(
    base: _FlatGraph, assignment: np.ndarray
) -> float:
    """Modularity of a base-node assignment, bit-equal to the dict oracle's.

    The per-community terms use exact integer sums; the final float
    accumulation visits communities in the same first-appearance order the
    oracle iterates, so level-gain decisions never diverge from it.
    """
    m = base.total_weight
    if m <= 0.0:
        return 0.0
    n = base.num_nodes
    num_coms = int(assignment.max()) + 1
    deg = np.bincount(assignment, weights=base.weighted_degrees(), minlength=num_coms)
    intra = np.bincount(assignment, weights=base.loops, minlength=num_coms)
    src = np.repeat(np.arange(n), np.diff(base.indptr))
    keep = (base.indices >= src) & (assignment[src] == assignment[base.indices])
    if keep.any():
        np.add.at(intra, assignment[src[keep]], base.weights[keep])

    uniq, first = np.unique(assignment, return_index=True)
    q = 0.0
    two_m = 2.0 * m
    for j in np.argsort(first, kind="stable"):
        c = int(uniq[j])
        q += intra[c] / m - (deg[c] / two_m) ** 2
    return q


class _FlatOps:
    """The level loop's dispatch table (the dict oracle supplies its own)."""

    one_level = staticmethod(_one_level_flat)
    renumber = staticmethod(_renumber_flat)
    induced = staticmethod(_induced_flat)
    partition = staticmethod(_flat_partition_flat)
    partition_modularity = staticmethod(_partition_modularity_flat)


@dataclass(frozen=True)
class LouvainResult:
    """Outcome of one Louvain run.

    Attributes:
        clustering: the detected communities as a validated partition.
        modularity: Q of the clustering on the input graph.
        num_levels: number of aggregation levels the run used.
        refined: whether multi-level refinement ran.
    """

    clustering: Clustering
    modularity: float
    num_levels: int
    refined: bool


def _run_louvain(
    graph: GraphLike,
    base: Any,
    users: List[UserId],
    rng: np.random.Generator,
    refine: bool,
    ops: Any,
) -> LouvainResult:
    """The level loop (Blondel et al. + Rotta–Noack) over dispatch table ``ops``.

    ``base`` is ``graph`` converted to the graph type ``ops`` works on,
    with node-id order ``users``; the loop reads it and never mutates it.
    """
    n = base.num_nodes
    if n == 0:
        return LouvainResult(Clustering([]), 0.0, 0, refined=False)
    if base.total_weight == 0.0:
        singletons = Clustering([[u] for u in users])
        return LouvainResult(singletons, 0.0, 0, refined=False)

    graphs = [base]
    levels: List[Any] = []
    current = base
    prev_q = -1.0
    while True:
        node2com = ops.partition([], current.num_nodes)  # singletons
        ops.one_level(current, node2com, rng)
        node2com, num_coms = ops.renumber(node2com)
        flat = ops.partition(levels + [node2com], n)
        q = ops.partition_modularity(base, flat)
        if q - prev_q <= _MIN_LEVEL_GAIN and levels:
            break
        prev_q = q
        levels.append(node2com)
        if num_coms == current.num_nodes:
            break
        current = ops.induced(current, node2com, num_coms)
        graphs.append(current)

    if refine and len(levels) > 1:
        _refine_levels(graphs, levels, rng, ops)

    flat = ops.partition(levels, n)
    assignment = {users[i]: int(flat[i]) for i in range(n)}
    clustering = Clustering.from_assignment(assignment)
    obs_incr("louvain.levels", len(levels))
    return LouvainResult(
        clustering=clustering,
        modularity=modularity(graph, clustering),
        num_levels=len(levels),
        refined=refine and len(levels) > 1,
    )


def _louvain_runs(
    graph: GraphLike,
    rngs: Iterable[np.random.Generator],
    refine: bool,
) -> Iterator[LouvainResult]:
    """One Louvain run per generator in ``rngs``, all on one conversion.

    ``graph`` is converted on the first run and every later run reuses
    that base graph.
    """
    converted: Optional[Tuple[_FlatGraph, List[UserId]]] = None
    for rng in rngs:
        with span("community.louvain"):
            obs_incr("louvain.runs")
            if converted is None:
                converted = _FlatGraph.from_social_graph(graph)
            base, users = converted
            result = _run_louvain(graph, base, users, rng, refine, _FlatOps)
        yield result


def louvain(
    graph: GraphLike,
    rng: Optional[np.random.Generator] = None,
    refine: bool = True,
) -> LouvainResult:
    """Detect communities in ``graph`` with the Louvain method.

    Args:
        graph: the social graph to cluster.
        rng: random source controlling node visit order (defaults to a
            fresh seeded generator, so pass one for reproducibility).
        refine: run the Rotta–Noack multi-level refinement pass (the paper
            enables it).

    Returns:
        A :class:`LouvainResult`; for an edgeless graph every node becomes
        its own community.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return next(_louvain_runs(graph, [rng], refine))


def _refine_levels(
    graphs: List[Any],
    levels: List[Any],
    rng: np.random.Generator,
    ops: Any,
) -> None:
    """Multi-level refinement: re-run local moving from coarse to fine.

    At each level below the coarsest, the nodes of that level's graph start
    from the community assignment implied by the levels above them; local
    moving then polishes the assignment, and the improvement propagates
    downward.  ``levels`` is rewritten in place.
    """
    for li in range(len(levels) - 2, -1, -1):
        # Assignment of level-li nodes implied by the coarser levels.
        node2com = ops.partition(levels[li:], graphs[li].num_nodes)
        ops.one_level(graphs[li], node2com, rng)
        node2com, _num = ops.renumber(node2com)
        # Collapse everything above level li into this single refined level.
        del levels[li + 1 :]
        levels[li] = node2com


def best_louvain_clustering(
    graph: GraphLike,
    runs: int = 10,
    seed: int = 0,
    refine: bool = True,
) -> LouvainResult:
    """The paper's clustering protocol: best of ``runs`` Louvain restarts.

    Each run uses an independent random node ordering; the run with the
    highest modularity wins (ties keep the earliest run, so results are
    deterministic in ``seed``).

    Raises:
        ValueError: if ``runs`` < 1.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    rngs = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(runs)
    )
    best: Optional[LouvainResult] = None
    for result in _louvain_runs(graph, rngs, refine):
        if best is None or result.modularity > best.modularity:
            best = result
    assert best is not None
    return best
