"""The cluster-profile scoring core ``P = S·C`` against the per-user oracle.

The oracle is the per-user dict loop every scoring path used before the
profile existed: walk ``sim(u, .)`` and add each score into its
neighbour's cluster.  Over the same rows ``P``'s rows equal it bit for
bit; against the measure's own python ``similarity_row`` the summation
order differs, so rows agree within 1e-12 and the rankings are identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.private as private_module
from repro.community.clustering import Clustering
from repro.community.strategies import singleton_clustering
from repro.compute.kernels import build_kernel
from repro.core.base import top_n_from_vector
from repro.core.persistence import PublishedRelease
from repro.core.private import PrivateSocialRecommender
from repro.core.profile import cluster_indicator, cluster_profile
from repro.exceptions import NodeNotFoundError
from repro.graph.generators import planted_partition_graph
from repro.graph.preference_graph import PreferenceGraph
from repro.resilience.degradation import (
    TIER_CLUSTER,
    TIER_GLOBAL,
    TIER_PERSONALIZED,
    degradation_estimates,
)
from repro.similarity.base import SimilarityCache, get_measure
from repro.types import as_recommendation_list

from tests.property.strategies import partitions, social_graphs

VECTORISED = ("cn", "aa", "ra", "gd", "kz")


class PythonRows:
    """The measure's own ``similarity_row``, one call per user."""

    def __init__(self, measure, graph) -> None:
        self.measure = measure
        self.graph = graph

    def row(self, user):
        return self.measure.similarity_row(self.graph, user)


def oracle_vector(cache: SimilarityCache, clustering: Clustering, user) -> np.ndarray:
    """``sim_sum(user, c)`` per cluster by the per-user dict loop."""
    vector = np.zeros(clustering.num_clusters)
    for v, score in cache.row(user).items():
        if v in clustering:
            vector[clustering.cluster_of(v)] += score
    return vector


def oracle_recommend(weights, cache, user, n):
    """The per-user recommend path: dict-loop vector, then the ladder."""
    try:
        vector = oracle_vector(cache, weights.clustering, user)
    except NodeNotFoundError:
        vector = None
    if vector is not None and vector.any():
        return top_n_from_vector(user, weights.items, weights.matrix @ vector, n)
    estimates, tier = degradation_estimates(weights, user)
    if estimates is None:
        return as_recommendation_list(user, [], tier=tier)
    return top_n_from_vector(user, weights.items, estimates, n, tier=tier)


def fitted(name, social, prefs, epsilon=1.0, **kwargs):
    rec = PrivateSocialRecommender(get_measure(name), epsilon=epsilon, **kwargs)
    return rec.fit(social, prefs)


def random_dataset(seed: int, sizes=(12, 9, 14)):
    rng = np.random.default_rng(seed)
    social = planted_partition_graph(list(sizes), 0.35, 0.04, rng)
    social.add_users(["isolated"])
    prefs = PreferenceGraph()
    for user in social.users():
        prefs.add_user(user)
        for item in rng.choice(20, size=int(rng.integers(0, 6)), replace=False):
            prefs.add_edge(user, int(item))
    prefs.add_edge("pref-only", 3)  # no social presence at all
    return social, prefs


class TestIndicatorAndRows:
    def test_indicator_rows_follow_users_and_zero_outside(self):
        clustering = Clustering([[1, 2], [3]])
        indicator = cluster_indicator([3, 9, 1, 2], clustering).toarray()
        assert indicator.tolist() == [[0, 1], [0, 0], [1, 0], [1, 0]]

    def test_rows_give_zero_rows_and_row_gives_none_outside_the_kernel(
        self, two_communities_graph
    ):
        kernel = build_kernel(two_communities_graph, get_measure("cn"))
        clustering = Clustering([[0, 1, 2, 3], [4, 5, 6, 7]])
        profile = cluster_profile(kernel, clustering)
        assert profile.row("stranger") is None
        rows = profile.rows([0, "stranger", 5])
        assert rows.shape == (3, 2)
        assert not rows[1].any()
        assert np.array_equal(rows[0], profile.row(0))
        assert np.array_equal(rows[2], profile.row(5))


class TestRowsMatchTheOracle:
    @pytest.mark.parametrize("name", VECTORISED)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_vectorised_rows_are_bit_identical(self, name, data):
        graph = data.draw(social_graphs(max_users=20, max_extra_edges=50))
        clustering = data.draw(partitions(graph.users()))
        measure = get_measure(name)
        kernel = build_kernel(graph, measure)
        profile = cluster_profile(kernel, clustering)
        cache = SimilarityCache(measure, graph)
        for user in graph.users():
            expected = oracle_vector(cache, clustering, user)
            assert np.array_equal(profile.row(user), expected), user

    @pytest.mark.parametrize("name", VECTORISED)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_partition_rows_are_bit_identical(self, name, seed):
        social, prefs = random_dataset(seed)
        rec = fitted(name, social, prefs, seed=seed)
        cache = SimilarityCache(rec.measure, social)
        profile = rec._cluster_profile()
        for user in social.users():
            expected = oracle_vector(cache, rec.clustering_, user)
            assert np.array_equal(profile.row(user), expected), user

    @pytest.mark.parametrize("name", ["jc", "cos", "aa", "kz"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_python_rows_agree_and_rankings_are_identical(self, name, seed):
        social, prefs = random_dataset(seed)
        rec = fitted(name, social, prefs, seed=seed)
        cache = PythonRows(rec.measure, social)
        profile = rec._cluster_profile()
        for user in social.users():
            expected = oracle_vector(cache, rec.clustering_, user)
            np.testing.assert_allclose(profile.row(user), expected, rtol=0, atol=1e-12)
            ours = rec.recommend(user, n=8)
            theirs = oracle_recommend(rec.noisy_weights_, cache, user, 8)
            assert ours.item_ids() == theirs.item_ids(), user
            assert ours.tier == theirs.tier


class TestLadderTiers:
    @pytest.mark.parametrize("name", ["cn", "kz", "jc"])
    def test_every_user_takes_the_oracles_tier(self, name):
        social, prefs = random_dataset(4)
        rec = fitted(name, social, prefs, epsilon=0.5, seed=3)
        cache = SimilarityCache(rec.measure, social)
        server = PublishedRelease.from_recommender(rec).server(social)
        probes = list(social.users()) + ["pref-only", "stranger"]
        for user in probes:
            expected = oracle_recommend(rec.noisy_weights_, cache, user, 6)
            for served in (rec.recommend(user, n=6), server.recommend(user, 6)):
                assert served.tier == expected.tier, user
                assert served.item_ids() == expected.item_ids(), user

    def test_tiers_of_the_special_users(self):
        social, prefs = random_dataset(5)
        rec = fitted("cn", social, prefs, epsilon=0.5, seed=1)
        # socially isolated: a zero profile row, served from its cluster
        assert rec.recommend("isolated").tier == TIER_CLUSTER
        # preference-only: no profile row, but a singleton cluster
        assert rec.recommend("pref-only").tier == TIER_CLUSTER
        # outside the graph and the clustering: global popularity
        assert rec.recommend("stranger").tier == TIER_GLOBAL
        some_user = next(u for u in social.users() if social.degree(u) >= 2)
        assert rec.recommend(some_user).tier == TIER_PERSONALIZED

    def test_utilities_raise_outside_the_graph(self):
        social, prefs = random_dataset(6)
        rec = fitted("cn", social, prefs, epsilon=math.inf)
        server = PublishedRelease.from_recommender(rec).server(social)
        with pytest.raises(NodeNotFoundError):
            rec.utilities("stranger")
        with pytest.raises(NodeNotFoundError):
            server.utilities("stranger")
        assert len(rec.utilities("isolated")) == len(rec.noisy_weights_.items)


class TestLazyProfile:
    def test_built_on_first_query_never_in_fit_and_rebuilt_on_refit(self, monkeypatch):
        calls = []
        original = private_module.profile_kernel

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(private_module, "profile_kernel", counting)
        social, prefs = random_dataset(7)

        def singles(graph):
            return singleton_clustering(graph.users())

        options = dict(epsilon=math.inf, clustering_strategy=singles)
        rec = fitted("cn", social, prefs, **options)
        assert calls == []
        user = next(u for u in social.users() if social.degree(u) >= 2)
        first = rec.recommend(user, n=5)
        rec.recommend(user, n=5)
        assert len(calls) == 1

        grown = social.copy()
        for other in social.users():
            if other != user and not grown.has_edge(user, other):
                grown.add_edge(user, other)
        rec.fit(grown, prefs)
        assert len(calls) == 1
        refit = rec.recommend(user, n=5)
        assert calls == [social, grown]
        fresh = fitted("cn", grown, prefs, **options)
        assert refit == fresh.recommend(user, n=5)
        assert refit != first

    def test_unwarmed_server_builds_its_profile_on_first_request(self):
        social, prefs = random_dataset(8)
        rec = fitted("kz", social, prefs)
        release = PublishedRelease.from_recommender(rec)
        cold = release.server(social)
        warm = release.server(social)
        warm.warm()
        for user in list(social.users()) + ["stranger"]:
            assert cold.recommend(user, 5) == warm.recommend(user, 5)
