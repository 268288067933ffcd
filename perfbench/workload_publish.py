"""``publish``: Algorithm 1 end to end, one release per unit.

Set-up generates a Flixster-shaped dataset (``flixster_like(0.03)``:
4,121 users, 1,500 items) from the fixed graph seed.  One unit, cycling
epsilon over {1.0, 0.6, 0.1}: ``PrivateSocialRecommender.fit`` with the Katz measure
(best-of-10 Louvain, then the noisy cluster averages), then
``PublishedRelease.save``, then ``SimilarityStore.warm`` into a fresh
store (Katz kernel plus its artifact), then ``PublishedRelease.load``.
A unit counts as failed unless the recommender's ledger and the loaded
release both carry the configured epsilon and the loaded matrix and
clustering equal the saved ones bit for bit.
"""

from __future__ import annotations

import os
import shutil

from harness import GRAPH_SEED, measure_units
from repro import Katz, PrivateSocialRecommender, SimilarityStore, SyntheticDatasetSpec
from repro.core.batch import compute_similarity_kernel
from repro.core.private import louvain_strategy
from repro.core.persistence import PublishedRelease
from repro.exceptions import ReproError

SCALE = {"full": 0.03, "tiny": 0.002}
EPSILONS = (1.0, 0.6, 0.1)
LAYERS_COVERED = (
    "community.louvain",
    "release.noise",
    "release.save",
    "compute.kernel",
    "cache.store_warm",
    "release.load",
)


def setup(bench):
    spec = SyntheticDatasetSpec.flixster_like(SCALE[bench.size])
    return spec.generate(seed=GRAPH_SEED)


def teardown(bench, dataset) -> None:
    pass


def _tamper(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _unit(bench, dataset, index: int, sizes: dict) -> None:
    """Publish, persist, warm and verify one release."""
    epsilon = EPSILONS[index % len(EPSILONS)]
    unit_dir = os.path.join(bench.workdir, f"unit-{index}")
    os.makedirs(unit_dir)
    path = os.path.join(unit_dir, "release.npz")
    measure = Katz()
    try:
        recommender = PrivateSocialRecommender(
            measure,
            epsilon=epsilon,
            clustering_strategy=louvain_strategy(runs=10, seed=bench.seed),
            seed=bench.seed * 1000 + index,
        )
        with bench.span("release.fit"):
            recommender.fit(dataset.social, dataset.preferences)
        release = PublishedRelease.from_recommender(recommender)
        with bench.span("release.save"):
            release.save(path)
        if bench.tamper and index == 0:
            _tamper(path)
        store = SimilarityStore(os.path.join(unit_dir, "store"))
        with bench.span("cache.store_warm"):
            lookup = store.warm(
                dataset.social,
                measure,
                lambda: compute_similarity_kernel(dataset.social, measure),
            )
        with bench.span("release.load"):
            loaded = PublishedRelease.load(path)
        saved, read = release.weights, loaded.weights
        if recommender.total_epsilon() != epsilon or loaded.epsilon != epsilon:
            bench.fail(
                f"unit {index}: ledger epsilon {recommender.total_epsilon()} / "
                f"loaded {loaded.epsilon}, configured {epsilon}"
            )
        elif (
            read.matrix.dtype != saved.matrix.dtype
            or read.matrix.shape != saved.matrix.shape
            or read.matrix.tobytes() != saved.matrix.tobytes()
            or read.items != saved.items
            or read.clustering.assignment() != saved.clustering.assignment()
        ):
            bench.fail(f"unit {index}: loaded release differs from the saved one")
        sizes["release"] = os.path.getsize(path)
        sizes["kernel"] = os.path.getsize(lookup.path)
        sizes["nnz"] = lookup.matrix.nnz
        sizes["clustering"] = recommender.clustering_
    except ReproError as exc:
        bench.fail(f"unit {index}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(unit_dir, ignore_errors=True)


def measure(bench, dataset) -> None:
    sizes: dict = {}
    traced = measure_units(
        bench, lambda index: _unit(bench, dataset, index, sizes), "publish.unit"
    )
    if traced is None:
        return
    table, units, unit_cpu = traced
    covered = sum(bench.layer_s(table, name, per=units) for name in LAYERS_COVERED)
    from repro import modularity

    clustering = sizes["clustering"]
    layers = bench.layers
    layers["trace.coverage_share"] = covered / unit_cpu
    layers["graph.users"] = dataset.social.num_users
    layers["graph.edges"] = dataset.social.num_edges
    layers["community.clusters"] = clustering.num_clusters
    layers["community.modularity"] = modularity(dataset.social, clustering)
    layers["release.artifact_mb"] = sizes["release"] / 2**20
    layers["cache.kernel_artifact_mb"] = sizes["kernel"] / 2**20
    layers["compute.kernel_nnz"] = sizes["nnz"]
