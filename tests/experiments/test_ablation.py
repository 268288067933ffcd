"""Unit tests for the ablation drivers."""

import pytest

import repro.experiments.ablation as ablation
from repro.experiments.ablation import (
    build_strategy_clusterings,
    run_clustering_ablation,
    run_error_decomposition,
    run_refinement_ablation,
)
from repro.graph.preference_graph import PreferenceGraph
from repro.similarity.base import SimilarityCache
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.katz import Katz
from tests.metrics.test_errors import per_call_approximation_error


@pytest.fixture(scope="module")
def strategies(lastfm_small):
    return build_strategy_clusterings(lastfm_small.social, seed=0)


class TestStrategyClusterings:
    def test_all_strategies_built(self, strategies):
        assert set(strategies) == {
            "louvain",
            "label-propagation",
            "random-k",
            "degree-buckets",
            "single-cluster",
            "singleton",
        }

    def test_all_cover_the_users(self, strategies, lastfm_small):
        users = set(lastfm_small.social.users())
        for name, clustering in strategies.items():
            assert clustering.users() == users, name

    def test_random_matches_louvain_granularity(self, strategies):
        assert (
            strategies["random-k"].num_clusters
            == strategies["louvain"].num_clusters
        )


class TestClusteringAblation:
    @pytest.fixture(scope="class")
    def cells(self, lastfm_small, strategies):
        return run_clustering_ablation(
            lastfm_small,
            CommonNeighbors(),
            epsilon=0.1,
            n=20,
            repeats=2,
            strategies=strategies,
            seed=0,
        )

    def test_one_cell_per_strategy(self, cells, strategies):
        assert {c.strategy for c in cells} == set(strategies)

    def test_louvain_beats_random_on_approximation_error(
        self, lastfm_small, strategies
    ):
        """The paper's central hypothesis, as an ablation: at eps = inf the
        only error is approximation error, and community clustering must
        approximate utilities better than random clustering of the same
        granularity."""
        import math

        cells = run_clustering_ablation(
            lastfm_small,
            CommonNeighbors(),
            epsilon=math.inf,
            n=20,
            repeats=1,
            strategies={
                "louvain": strategies["louvain"],
                "random-k": strategies["random-k"],
            },
            seed=0,
        )
        scores = {c.strategy: c.ndcg_mean for c in cells}
        assert scores["louvain"] > scores["random-k"]

    def test_louvain_beats_singleton_at_strong_privacy(self, cells):
        scores = {c.strategy: c.ndcg_mean for c in cells}
        assert scores["louvain"] > scores["singleton"]

    def test_modularity_recorded(self, cells):
        by_name = {c.strategy: c for c in cells}
        assert by_name["louvain"].modularity > by_name["random-k"].modularity


class TestErrorDecomposition:
    def test_rows_for_each_strategy(self, lastfm_small, strategies):
        rows = run_error_decomposition(
            lastfm_small,
            CommonNeighbors(),
            epsilon=0.1,
            max_users=15,
            max_items=8,
            strategies=strategies,
            seed=0,
        )
        assert {r.strategy for r in rows} == set(strategies)

    def test_shared_averages_match_the_per_call_formula(
        self, lastfm_small, strategies, monkeypatch
    ):
        """The one-walk-per-row driver reproduces the per-(user, item)
        formula bit for bit, for CN and for Katz."""

        def run(measure):
            return run_error_decomposition(
                lastfm_small,
                measure,
                epsilon=0.1,
                max_users=15,
                max_items=8,
                strategies=strategies,
                seed=0,
            )

        def per_call(row, prefs, clustering, items, averages):
            return [
                per_call_approximation_error(row, prefs, clustering, item)
                for item in items
            ]

        measures = (CommonNeighbors(), Katz())
        fast = [run(measure) for measure in measures]
        monkeypatch.setattr(ablation, "_approximation_errors", per_call)
        slow = [run(measure) for measure in measures]
        assert fast == slow

    def test_driver_walks_each_row_once(self, lastfm_small, strategies, monkeypatch):
        """No per-(user, item, neighbour) weight lookups: each row is
        walked once and neighbours contribute through their own edges."""
        calls = []
        weight = PreferenceGraph.weight

        def counted(self, user, item):
            calls.append(1)
            return weight(self, user, item)

        monkeypatch.setattr(PreferenceGraph, "weight", counted)
        rows = run_error_decomposition(
            lastfm_small,
            CommonNeighbors(),
            max_users=15,
            max_items=8,
            strategies=strategies,
            seed=0,
        )
        assert any(row.mean_abs_approximation > 0 for row in rows)
        cache = SimilarityCache(CommonNeighbors(), lastfm_small.social)
        row_entries = sum(len(cache.row(u)) for u in lastfm_small.social.users())
        assert row_entries > 0
        assert len(calls) < row_entries

    def test_the_tradeoff_is_visible(self, lastfm_small, strategies):
        """Singletons: zero approximation error, huge perturbation error.
        Single cluster: the opposite. Louvain: in between on both."""
        rows = {
            r.strategy: r
            for r in run_error_decomposition(
                lastfm_small,
                CommonNeighbors(),
                epsilon=0.1,
                max_users=15,
                max_items=8,
                strategies=strategies,
                seed=0,
            )
        }
        assert rows["singleton"].mean_abs_approximation == pytest.approx(0.0)
        assert (
            rows["singleton"].mean_expected_perturbation
            > rows["louvain"].mean_expected_perturbation
            > rows["single-cluster"].mean_expected_perturbation
        )
        assert (
            rows["single-cluster"].mean_abs_approximation
            >= rows["louvain"].mean_abs_approximation
        )


class TestRefinementAblation:
    def test_refinement_no_worse_on_average(self, lastfm_small):
        result = run_refinement_ablation(lastfm_small.social, runs=4, seed=0)
        assert (
            result.refined_mean_modularity
            >= result.unrefined_mean_modularity - 1e-9
        )
        assert result.runs == 4

    def test_invalid_runs(self, lastfm_small):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            run_refinement_ablation(lastfm_small.social, runs=1)
