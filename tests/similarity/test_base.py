"""Unit tests for the similarity registry and row cache."""

import pytest

from repro.exceptions import SimilarityError
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.base import (
    SimilarityCache,
    get_measure,
    list_measures,
    register_measure,
)
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz


class TestRegistry:
    def test_builtin_measures_registered(self):
        names = list_measures()
        for name in ("cn", "aa", "gd", "kz"):
            assert name in names

    def test_get_measure_by_name(self):
        assert isinstance(get_measure("cn"), CommonNeighbors)
        assert isinstance(get_measure("aa"), AdamicAdar)
        assert isinstance(get_measure("gd"), GraphDistance)
        assert isinstance(get_measure("kz"), Katz)

    def test_get_measure_case_insensitive(self):
        assert isinstance(get_measure("CN"), CommonNeighbors)

    def test_unknown_measure_raises_with_known_list(self):
        with pytest.raises(SimilarityError, match="cn"):
            get_measure("nope")

    def test_get_measure_returns_fresh_instances(self):
        assert get_measure("cn") is not get_measure("cn")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimilarityError):
            register_measure("cn", CommonNeighbors)

    def test_custom_registration(self):
        class Custom(CommonNeighbors):
            name = "custom-test-measure"

        register_measure(Custom.name, Custom)
        assert isinstance(get_measure("custom-test-measure"), Custom)


class TestSimilarityCache:
    def test_row_is_cached(self, triangle_graph):
        calls = []

        class Counting(CommonNeighbors):
            name = "counting"  # no vectorised builder: rows come one by one

            def similarity_row(self, graph, user):
                calls.append(user)
                return super().similarity_row(graph, user)

        cache = SimilarityCache(Counting(), triangle_graph)
        cache.row(1)
        cache.row(1)
        assert calls == [1]

    def test_cached_values_correct(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert cache.similarity(1, 2) == 1.0
        assert cache.similarity(1, 1) == 0.0

    def test_precompute_warms_all(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        cache.precompute()
        assert len(cache) == 3

    def test_precompute_subset(self, triangle_graph):
        from repro.similarity.neighborhood import Jaccard

        cache = SimilarityCache(Jaccard(), triangle_graph)
        cache.precompute([1])
        assert len(cache) == 1

    def test_exposes_measure_and_graph(self, triangle_graph):
        measure = CommonNeighbors()
        cache = SimilarityCache(measure, triangle_graph)
        assert cache.measure is measure
        assert cache.graph is triangle_graph


class TestCacheBackends:
    def test_unknown_backend_rejected(self, triangle_graph):
        # Rows are materialised by the one path the measure selects; the
        # retired backend knob is refused rather than silently ignored.
        with pytest.raises(TypeError):
            SimilarityCache(CommonNeighbors(), triangle_graph, backend="python")

    def test_vectorized_rows_match_python(self, two_communities_graph):
        vectorized = SimilarityCache(AdamicAdar(), two_communities_graph)
        for user in two_communities_graph.users():
            expected = AdamicAdar().similarity_row(two_communities_graph, user)
            actual = vectorized.row(user)
            assert set(actual) == set(expected)
            for other, score in expected.items():
                assert actual[other] == pytest.approx(score, abs=1e-9)

    def test_vectorized_row_skips_per_user_measure(self, triangle_graph):
        calls = []

        class Counting(CommonNeighbors):
            def similarity_row(self, graph, user):
                calls.append(user)
                return super().similarity_row(graph, user)

        cache = SimilarityCache(Counting(), triangle_graph)
        cache.row(1)
        assert calls == []
        assert len(cache) == 3

    def test_precompute_records_compute_stats(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert cache.last_compute_stats is None
        cache.precompute()
        stats = cache.last_compute_stats
        assert stats is not None
        assert stats.backend == "vectorized"
        assert stats.rows == 3

    def test_default_backend_is_auto(self, triangle_graph):
        """The path follows the measure: a kernel build for measures with
        a vectorised builder, per-row python rows for the rest."""
        from repro.similarity.neighborhood import Jaccard

        vectorised = SimilarityCache(CommonNeighbors(), triangle_graph)
        vectorised.row(1)
        assert vectorised.last_compute_stats.backend == "vectorized"
        per_row = SimilarityCache(Jaccard(), triangle_graph)
        per_row.row(1)
        assert per_row.last_compute_stats is None
        assert len(per_row) == 1

    def test_precompute_backend_override(self, triangle_graph):
        # The per-call override is retired with the knob: refused, not
        # silently ignored.
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        with pytest.raises(TypeError):
            cache.precompute(backend="python")
        cache.precompute()
        assert cache.last_compute_stats.backend == "vectorized"
        assert len(cache) == 3

    def test_auto_backend_degrades_for_unsupported_measure(self, triangle_graph):
        from repro.similarity.neighborhood import Jaccard

        cache = SimilarityCache(Jaccard(), triangle_graph)
        assert cache.row(1) == Jaccard().similarity_row(triangle_graph, 1)

    def test_similarity_set_drops_zero_scores(self, triangle_graph):
        class WithZeros(CommonNeighbors):
            # A custom row override must rename the measure, or the "cn"
            # builder would legitimately vectorise past it.
            name = "with-zeros"

            def similarity_row(self, graph, user):
                row = dict(super().similarity_row(graph, user))
                row["phantom"] = 0.0
                return row

        cache = SimilarityCache(WithZeros(), triangle_graph)
        assert "phantom" in cache.row(1)
        assert cache.similarity_set(1) == frozenset({2, 3})

    def test_similarity_set_matches_measure(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert cache.similarity_set(1) == CommonNeighbors().similarity_set(
            triangle_graph, 1
        )
