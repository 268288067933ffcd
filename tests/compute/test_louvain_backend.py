"""Equivalence tests: the flat-array Louvain against the dict oracle."""

import random

import numpy as np
import pytest

from repro.community.louvain import _FlatOps, best_louvain_clustering, louvain
from repro.community.modularity import modularity
from repro.graph.social_graph import SocialGraph
from tests.oracles.louvain_dict import dict_best_louvain, dict_louvain


def _random_graph(seed, n=40, extra=80):
    rnd = random.Random(seed)
    graph = SocialGraph()
    graph.add_users(range(n))
    for _ in range(extra):
        u, v = rnd.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    @pytest.mark.parametrize("refine", [True, False])
    def test_identical_partitions(self, seed, refine):
        graph = _random_graph(seed)
        ref = dict_louvain(graph, np.random.default_rng(seed), refine=refine)
        flat = louvain(graph, np.random.default_rng(seed), refine=refine)
        assert flat.clustering.assignment() == ref.clustering.assignment()
        assert flat.modularity == ref.modularity
        assert flat.num_levels == ref.num_levels

    def test_best_of_runs_identical(self):
        graph = _random_graph(5, n=80, extra=200)
        ref = dict_best_louvain(graph, runs=4, seed=0)
        flat = best_louvain_clustering(graph, runs=4, seed=0)
        assert flat.clustering.assignment() == ref.clustering.assignment()
        assert flat.modularity == ref.modularity

    def test_unknown_backend_rejected(self):
        # One implementation; the retired backend knob is refused rather
        # than silently ignored.
        with pytest.raises(TypeError):
            louvain(_random_graph(0), backend="python")
        with pytest.raises(TypeError):
            best_louvain_clustering(_random_graph(0), backend="python")

    def test_modularity_matches_reported(self):
        graph = _random_graph(7)
        result = louvain(graph)
        assert modularity(graph, result.clustering) == pytest.approx(
            result.modularity, abs=1e-12
        )


class TestFaultDegradation:
    pytestmark = pytest.mark.faults

    def test_explicit_vectorized_propagates(self, monkeypatch):
        """With one implementation there is no silent fallback: a failure
        in the flat level loop reaches the caller."""

        def broken(*args):
            raise OSError("injected")

        monkeypatch.setattr(_FlatOps, "one_level", staticmethod(broken))
        with pytest.raises(OSError):
            louvain(_random_graph(2))
        with pytest.raises(OSError):
            best_louvain_clustering(_random_graph(2), runs=2)
