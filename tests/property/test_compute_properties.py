"""Property tests: the vectorised compute path equals the reference.

Two independent implementations guard each other — the per-user python
rows and the dict Louvain oracle are the semantic ground truth, and the
CSR/flat-array code must reproduce them (rows within 1e-9, partitions
exactly) on arbitrary graphs, not just the fixtures.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.louvain import _FlatGraph, best_louvain_clustering, louvain
from repro.compute.kernels import build_kernel
from repro.graph.bigcsr import bigcsr_from_social_graph
from repro.graph.generators import planted_partition_graph
from repro.graph.social_graph import SocialGraph
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import ResourceAllocation

from tests.oracles.louvain_dict import dict_best_louvain, dict_louvain

from .strategies import social_graphs

MEASURES = [
    CommonNeighbors(),
    AdamicAdar(),
    ResourceAllocation(),
    GraphDistance(),
    GraphDistance(max_distance=3),
    Katz(),
]
MEASURE_IDS = ["cn", "aa", "ra", "gd2", "gd3", "kz"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    @given(graph=social_graphs())
    @settings(max_examples=20, deadline=None)
    def test_rows_match_python_measure(self, graph, measure):
        kernel = build_kernel(graph, measure)
        for user in graph.users():
            expected = measure.similarity_row(graph, user)
            actual = kernel.row(user)
            assert set(actual) == set(expected)
            for other, score in expected.items():
                assert actual[other] == pytest.approx(score, abs=1e-9)

    @given(graph=social_graphs(), block_size=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_block_size_never_changes_the_kernel(self, graph, block_size):
        reference = build_kernel(graph, CommonNeighbors())
        blocked = build_kernel(graph, CommonNeighbors(), block_size=block_size)
        assert (blocked.matrix != reference.matrix).nnz == 0


class TestLouvainEquivalence:
    @given(graph=social_graphs(max_users=16, max_extra_edges=30),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_identical_partitions(self, graph, seed):
        ref = dict_louvain(graph, np.random.default_rng(seed))
        vec = louvain(graph, np.random.default_rng(seed))
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels

    @given(
        graph=social_graphs(max_users=16, max_extra_edges=30),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_best_of_runs_identical(self, graph, seed):
        _assert_same_best(graph, seed)

    def test_best_of_runs_identical_on_shuffled_str_ids(self):
        """Node order follows insertion, not id order: relabelled str ids
        inserted in a shuffled order still partition identically."""
        rng = np.random.default_rng(3)
        planted = planted_partition_graph([12, 15, 10, 13], 0.4, 0.04, rng)
        rnd = random.Random(11)
        users = [f"user-{u}" for u in planted.users()]
        rnd.shuffle(users)
        edges = []
        for u, v in planted.edges():
            pair = (f"user-{u}", f"user-{v}")
            edges.append(pair if rnd.random() < 0.5 else pair[::-1])
        rnd.shuffle(edges)
        graph = SocialGraph()
        graph.add_users(users)
        for u, v in edges:
            graph.add_edge(u, v)
        _assert_same_best(graph, 5)

    def test_best_of_runs_identical_on_bigcsr(self, tmp_path):
        rng = np.random.default_rng(8)
        social = planted_partition_graph([15, 20, 12], 0.35, 0.03, rng)
        big = bigcsr_from_social_graph(social, directory=str(tmp_path))
        reference = _assert_same_best(big, 2)
        in_memory = best_louvain_clustering(social, runs=3, seed=2)
        assert reference.clustering.assignment() == in_memory.clustering.assignment()

    def test_best_of_runs_converts_the_graph_once(self, monkeypatch):
        rng = np.random.default_rng(1)
        graph = planted_partition_graph([10, 10, 10], 0.4, 0.05, rng)
        conversions = []
        convert = _FlatGraph.from_social_graph

        def counted(g):
            conversions.append(g)
            return convert(g)

        monkeypatch.setattr(_FlatGraph, "from_social_graph", staticmethod(counted))
        best_louvain_clustering(graph, runs=10, seed=0)
        assert conversions == [graph]


def _assert_same_best(graph, seed):
    """Best-of-3 flat vs dict oracle: same partition, modularity and levels."""
    ref = dict_best_louvain(graph, runs=3, seed=seed)
    vec = best_louvain_clustering(graph, runs=3, seed=seed)
    assert vec.clustering.assignment() == ref.clustering.assignment()
    assert vec.modularity == ref.modularity
    assert vec.num_levels == ref.num_levels
    return vec
