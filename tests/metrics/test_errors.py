"""Unit tests for the Eq. 5/6 error decomposition."""

import math
import random

import pytest

from repro.community.clustering import Clustering
from repro.graph.preference_graph import PreferenceGraph
from repro.metrics.errors import (
    ErrorDecomposition,
    _approximation_errors,
    approximation_error,
    expected_perturbation_error,
)


def per_call_approximation_error(row, preferences, clustering, item):
    """Eq. 6 evaluated per call: every cluster average recomputed."""
    sim = {}
    weighted = {}
    for v, score in row.items():
        if v not in clustering:
            continue
        c = clustering.cluster_of(v)
        sim[c] = sim.get(c, 0.0) + score
        weighted[c] = weighted.get(c, 0.0) + score * preferences.weight(v, item)
    error = 0.0
    for c, sim_sum in sim.items():
        members = clustering.members_of(c)
        c_bar = sum(preferences.weight(v, item) for v in members) / len(members)
        error += weighted[c] - sim_sum * c_bar
    return error


@pytest.fixture
def prefs():
    g = PreferenceGraph()
    g.add_users([1, 2, 3, 4])
    g.add_edge(1, "a")
    g.add_edge(2, "a")
    # Users 3, 4 do not prefer "a".
    g.add_item("a")
    return g


class TestApproximationError:
    def test_uniform_similarity_full_cluster_cancels(self, prefs):
        # Paper Eq. 7: when sim(u) covers a whole cluster with uniform
        # similarity, the approximation error cancels exactly.
        clustering = Clustering([[1, 2, 3, 4]])
        row = {1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0}
        assert approximation_error(row, prefs, clustering, "a") == pytest.approx(0.0)

    def test_singleton_clusters_zero_error(self, prefs):
        clustering = Clustering([[1], [2], [3], [4]])
        row = {1: 1.0, 2: 3.0, 4: 0.5}
        assert approximation_error(row, prefs, clustering, "a") == pytest.approx(0.0)

    def test_partial_coverage_nonzero(self, prefs):
        # sim set covers only user 1 of a 4-user cluster; w(1,a)=1 but the
        # average is 0.5 => error = 1 * (1 - 0.5) = 0.5.
        clustering = Clustering([[1, 2, 3, 4]])
        row = {1: 1.0}
        assert approximation_error(row, prefs, clustering, "a") == pytest.approx(0.5)

    def test_error_sign_for_nonpreferring_user(self, prefs):
        # sim set covers user 3 only: w(3,a)=0, average 0.5 => error -0.5.
        clustering = Clustering([[1, 2, 3, 4]])
        row = {3: 1.0}
        assert approximation_error(row, prefs, clustering, "a") == pytest.approx(-0.5)

    def test_uncovered_users_ignored(self, prefs):
        clustering = Clustering([[1, 2]])
        row = {1: 1.0, 99: 5.0}
        value = approximation_error(row, prefs, clustering, "a")
        assert value == pytest.approx(0.0)  # cluster avg is 1, w=1

    def test_matches_direct_estimate_difference(self, prefs):
        # AE must equal (true utility) - (cluster-average estimate).
        clustering = Clustering([[1, 3], [2, 4]])
        row = {1: 2.0, 2: 1.0, 3: 0.5}
        true_utility = 2.0 * 1 + 1.0 * 1 + 0.5 * 0
        averages = {0: 0.5, 1: 0.5}
        estimate = (2.0 + 0.5) * averages[0] + 1.0 * averages[1]
        expected = true_utility - estimate
        assert approximation_error(row, prefs, clustering, "a") == pytest.approx(
            expected
        )


class TestPerturbationError:
    def test_infinite_epsilon_zero(self):
        clustering = Clustering([[1, 2]])
        assert expected_perturbation_error({1: 1.0}, clustering, math.inf) == 0.0

    def test_formula(self):
        clustering = Clustering([[1, 2], [3]])
        row = {1: 2.0, 3: 1.0}
        eps = 0.5
        expected = (math.sqrt(2) / (eps * 2)) * 2.0 + (math.sqrt(2) / (eps * 1)) * 1.0
        assert expected_perturbation_error(row, clustering, eps) == pytest.approx(
            expected
        )

    def test_larger_clusters_less_error(self):
        row = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        big = Clustering([[1, 2, 3, 4]])
        small = Clustering([[1], [2], [3], [4]])
        assert expected_perturbation_error(row, big, 0.1) < expected_perturbation_error(
            row, small, 0.1
        )

    def test_scales_inversely_with_epsilon(self):
        clustering = Clustering([[1, 2]])
        row = {1: 1.0}
        weak = expected_perturbation_error(row, clustering, 1.0)
        strong = expected_perturbation_error(row, clustering, 0.1)
        assert strong == pytest.approx(10 * weak)


class TestDecomposition:
    def test_compute_bundles_both(self, prefs):
        clustering = Clustering([[1, 2, 3, 4]])
        row = {1: 1.0}
        decomp = ErrorDecomposition.compute(row, prefs, clustering, "a", 0.5)
        assert decomp.approximation == pytest.approx(0.5)
        assert decomp.expected_perturbation > 0.0
        assert decomp.expected_total == pytest.approx(
            abs(decomp.approximation) + decomp.expected_perturbation
        )

    def test_the_core_tradeoff(self, prefs):
        """The paper's whole argument in one assertion: with strong privacy
        the big cluster's total expected error is lower than singletons'."""
        row = {1: 1.0, 2: 1.0}
        eps = 0.05
        big = ErrorDecomposition.compute(
            row, prefs, Clustering([[1, 2, 3, 4]]), "a", eps
        )
        singleton = ErrorDecomposition.compute(
            row, prefs, Clustering([[1], [2], [3], [4]]), "a", eps
        )
        assert big.expected_total < singleton.expected_total


class TestSharedAverages:
    def test_one_table_across_calls_matches_the_per_call_formula(self):
        """Many (user, item) estimates sharing one average table give the
        per-call values, on a weighted graph with unclustered users."""
        rnd = random.Random(3)
        users = list(range(40))
        items = [f"i{k}" for k in range(6)]
        prefs = PreferenceGraph()
        prefs.add_users(users)
        for item in items:
            prefs.add_item(item)
        for _ in range(120):
            prefs.add_edge(
                rnd.choice(users), rnd.choice(items), rnd.choice([0.3, 1.0, 2.5])
            )
        clustering = Clustering([users[k : k + 7] for k in range(0, 35, 7)])
        averages = {}
        for user in users:
            row = {v: rnd.random() for v in rnd.sample(users, 12) if v != user}
            shared = _approximation_errors(row, prefs, clustering, items, averages)
            for item, value in zip(items, shared):
                expected = per_call_approximation_error(row, prefs, clustering, item)
                assert value == expected
                assert approximation_error(row, prefs, clustering, item) == expected
        assert set(averages) <= {
            (c, item) for c in range(clustering.num_clusters) for item in items
        }
