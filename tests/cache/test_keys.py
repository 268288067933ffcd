"""Cache-key stability: keys change exactly when the inputs change."""

import pytest

from repro.cache.keys import (
    _tagged_graph_fingerprint,
    graph_fingerprint,
    measure_fingerprint,
    similarity_cache_key,
)
from repro.graph.social_graph import SocialGraph
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz

EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
# Keys of SocialGraph(EDGES) as earlier versions computed and persisted them.
EDGES_FINGERPRINT = "789e4cfaf0ae86e1f5169462363dd84e5b2fb5644d50e59b04947786a3d443d1"
EDGES_KATZ_KEY = "fbc5e46314135ec4395d7804db4ec360ce184c50ede5fd6b48a8f218cb8e3fed"


class TestGraphFingerprint:
    def test_same_graph_loaded_twice_is_identical(self):
        first = SocialGraph(EDGES)
        second = SocialGraph(EDGES)
        assert graph_fingerprint(first) == graph_fingerprint(second)

    def test_insertion_order_is_irrelevant(self):
        forward = SocialGraph(EDGES)
        backward = SocialGraph(list(reversed(EDGES)))
        flipped = SocialGraph([(v, u) for u, v in EDGES])
        assert graph_fingerprint(forward) == graph_fingerprint(backward)
        assert graph_fingerprint(forward) == graph_fingerprint(flipped)

    def test_one_edge_added_changes_the_fingerprint(self):
        base = SocialGraph(EDGES)
        grown = SocialGraph(EDGES)
        grown.add_edge(1, 5)
        assert graph_fingerprint(base) != graph_fingerprint(grown)

    def test_one_edge_removed_changes_the_fingerprint(self):
        base = SocialGraph(EDGES)
        shrunk = SocialGraph(EDGES)
        shrunk.remove_edge(3, 4)
        assert graph_fingerprint(base) != graph_fingerprint(shrunk)

    def test_isolated_node_changes_the_fingerprint(self):
        base = SocialGraph(EDGES)
        padded = SocialGraph(EDGES)
        padded.add_user(99)
        assert graph_fingerprint(base) != graph_fingerprint(padded)

    def test_int_and_str_identifiers_never_collide(self):
        ints = SocialGraph([(1, 2)])
        strs = SocialGraph([("1", "2")])
        assert graph_fingerprint(ints) != graph_fingerprint(strs)

    def test_unhashable_identifier_rejected(self):
        graph = SocialGraph([((1, 2), (3, 4))])  # tuple ids: valid graph,
        with pytest.raises(TypeError):  # but not content-addressable
            graph_fingerprint(graph)


class TestIntGraphFastPath:
    """All-int graphs hash through numpy; the bytes must not change."""

    @pytest.mark.parametrize(
        "edges, extra_users",
        [
            ([(0, 1), (1, 2), (0, 2), (2, 3)], []),  # contiguous 0..n-1
            (EDGES, []),  # starts at 1
            ([(5, 9), (-3, 2), (100, 7), (9, -3)], []),  # sparse, negative
            (EDGES, [99, 0, 42]),  # isolated users
            ([], [3, 1, 2]),  # edgeless
            ([], [0, 1, 2]),  # edgeless, contiguous
            ([], []),  # empty
        ],
        ids=[
            "contiguous",
            "offset",
            "sparse",
            "isolated",
            "edgeless",
            "edgeless-contiguous",
            "empty",
        ],
    )
    def test_digest_equals_the_tagged_path(self, edges, extra_users):
        graph = SocialGraph(edges)
        graph.add_users(extra_users)
        assert graph_fingerprint(graph) == _tagged_graph_fingerprint(
            graph, graph.users()
        )

    def test_ids_beyond_int64_take_the_tagged_path(self):
        graph = SocialGraph([(2**70, 1), (1, 2)])
        assert graph_fingerprint(graph) == _tagged_graph_fingerprint(
            graph, graph.users()
        )

    def test_existing_keys_keep_hitting(self):
        """Digests persisted by earlier versions stay valid cache keys."""
        graph = SocialGraph(EDGES)
        assert graph_fingerprint(graph) == EDGES_FINGERPRINT
        assert similarity_cache_key(graph, Katz()) == EDGES_KATZ_KEY


class TestMeasureFingerprint:
    def test_fresh_instances_key_identically(self):
        assert measure_fingerprint(CommonNeighbors()) == measure_fingerprint(
            CommonNeighbors()
        )
        assert measure_fingerprint(Katz()) == measure_fingerprint(Katz())

    def test_different_measures_key_differently(self):
        assert measure_fingerprint(CommonNeighbors()) != measure_fingerprint(
            AdamicAdar()
        )

    def test_parameter_change_keys_differently(self):
        assert measure_fingerprint(Katz(alpha=0.05)) != measure_fingerprint(
            Katz(alpha=0.1)
        )
        assert measure_fingerprint(Katz(max_length=2)) != measure_fingerprint(
            Katz(max_length=3)
        )
        assert measure_fingerprint(GraphDistance(max_distance=2)) != (
            measure_fingerprint(GraphDistance(max_distance=3))
        )


class TestSimilarityCacheKey:
    def test_stable_across_loads(self):
        assert similarity_cache_key(SocialGraph(EDGES), Katz()) == (
            similarity_cache_key(SocialGraph(list(reversed(EDGES))), Katz())
        )

    def test_sensitive_to_graph_and_measure(self):
        graph = SocialGraph(EDGES)
        grown = SocialGraph(EDGES)
        grown.add_edge(2, 5)
        base = similarity_cache_key(graph, Katz())
        assert base != similarity_cache_key(grown, Katz())
        assert base != similarity_cache_key(graph, Katz(alpha=0.1))
        assert base != similarity_cache_key(graph, CommonNeighbors())

    def test_key_is_hex_sha256(self):
        key = similarity_cache_key(SocialGraph(EDGES), CommonNeighbors())
        assert len(key) == 64
        int(key, 16)  # parses as hex
