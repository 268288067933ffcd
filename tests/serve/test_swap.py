"""Hot-swap tests: generation bump, failure isolation, drain guarantee.

The drain test is the serving tier's acceptance criterion in executable
form: requests in flight against release vN at the instant of the flip
all complete on vN — zero failures — while new requests land on vN+1.
"""

from __future__ import annotations

import threading
import time
from urllib.parse import quote

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import (
    HotSwapper,
    ServerConfig,
    ServingEngine,
)

from .conftest import fit_release, wait_for


@pytest.fixture(scope="module")
def release_paths(tmp_path_factory, serve_dataset, serve_release):
    """Two saved release artifacts: the shared v1 and a refitted v2."""
    root = tmp_path_factory.mktemp("releases")
    v1 = str(root / "v1.npz")
    serve_release.save(v1)
    v2 = str(root / "v2.npz")
    fit_release(serve_dataset, epsilon=0.8, seed=11).save(v2)
    return v1, v2


class TestHotSwapper:
    def test_swap_bumps_generation(
        self, registry, serve_dataset, serve_release, release_paths
    ):
        _, v2 = release_paths
        engine = ServingEngine(serve_release, serve_dataset.social)
        swapper = HotSwapper(engine)
        result = swapper.swap(v2, serve_dataset.social)
        assert result.old_generation == 0
        assert result.new_generation == 1
        assert result.path == v2
        assert result.inflight_at_flip == 0
        assert result.drained is True
        assert swapper.generation == 1
        assert swapper.current.release.epsilon == pytest.approx(0.8)
        counters = registry.snapshot().counters
        assert counters["serve.swap.started"] == 1
        assert counters["serve.swap.completed"] == 1
        assert "serve.swap.failed" not in counters

    @pytest.mark.faults
    def test_failed_swap_leaves_old_generation_serving(
        self, registry, serve_dataset, serve_release, release_paths, popular_user
    ):
        _, v2 = release_paths
        engine = ServingEngine(serve_release, serve_dataset.social)
        swapper = HotSwapper(engine)
        plan = FaultPlan([FaultSpec(site="serve.swap", kind="raise")])
        with plan.installed():
            with pytest.raises(OSError):
                swapper.swap(v2, serve_dataset.social)
        assert swapper.generation == 0
        assert swapper.current is engine
        # The old generation still answers.
        result = swapper.current.recommend(popular_user, 5)
        assert result.items or result.tier
        counters = registry.snapshot().counters
        assert counters["serve.swap.started"] == 1
        assert counters["serve.swap.failed"] == 1
        assert "serve.swap.completed" not in counters


class TestSwapOverHttp:
    def test_admin_swap_flips_served_generation(
        self, make_server, release_paths, popular_user
    ):
        v1, v2 = release_paths
        harness = make_server(path=v1)
        _, before = harness.get(f"/recommend?user={popular_user}")
        assert before["generation"] == 0
        status, payload = harness.post(f"/admin/swap?path={quote(v2)}")
        assert status == 200
        assert payload["old_generation"] == 0
        assert payload["new_generation"] == 1
        assert payload["drained"] is True
        _, after = harness.get(f"/recommend?user={popular_user}")
        assert after["generation"] == 1
        _, health = harness.get("/health")
        assert health["release"]["generation"] == 1

    def test_missing_path_is_400(self, make_server):
        harness = make_server()
        status, _ = harness.post("/admin/swap")
        assert status == 400

    @pytest.mark.faults
    def test_corrupt_artifact_is_409_and_old_keeps_serving(
        self, make_server, release_paths, popular_user, tmp_path
    ):
        _, v2 = release_paths
        harness = make_server()
        bogus = tmp_path / "corrupt.npz"
        bogus.write_bytes(b"this is not a release archive")
        status, payload = harness.post(f"/admin/swap?path={quote(str(bogus))}")
        assert status == 409
        assert "error" in payload
        assert payload["generation"] == 0
        status, served = harness.get(f"/recommend?user={popular_user}")
        assert status == 200
        assert served["generation"] == 0


@pytest.mark.faults
class TestDrainGuarantee:
    def test_inflight_requests_complete_on_old_generation(
        self, registry, make_server, release_paths, popular_user, serve_dataset
    ):
        """Acceptance: a swap under live load drops zero in-flight requests."""
        _, v2 = release_paths
        harness = make_server(config=ServerConfig(threads=8))
        results = []

        def issue():
            results.append(harness.get(f"/recommend?user={popular_user}"))

        # Stall every scoring call so requests are reliably in flight
        # when the flip happens.
        plan = FaultPlan(
            [FaultSpec(site="serve.request", kind="slow", delay=1.0, repeat=True)]
        )
        with plan.installed():
            threads = [threading.Thread(target=issue) for _ in range(4)]
            for thread in threads:
                thread.start()
            assert wait_for(
                lambda: harness.server.admission.depth >= 4, timeout_s=30.0
            ), "requests never reached the executor"
            result = harness.server.swapper.swap(v2, serve_dataset.social)
            for thread in threads:
                thread.join(timeout=30.0)

        assert result.inflight_at_flip >= 1
        assert result.drained is True
        assert len(results) == 4
        for status, payload in results:
            assert status == 200
            assert payload["generation"] == 0  # finished on the old release
        # New requests land on the new generation.
        status, after = harness.get(f"/recommend?user={popular_user}")
        assert status == 200
        assert after["generation"] == 1
        counters = registry.snapshot().counters
        assert counters["serve.swap.completed"] == 1
        assert counters.get("serve.errors", 0) == 0
        assert registry.snapshot().gauges["serve.swap.inflight_at_flip"] >= 1.0

    def test_swap_with_one_scoring_thread_does_not_stall(
        self, make_server, release_paths, popular_user
    ):
        """The swap runs off the scoring pool: with a single scoring
        thread its drain must not wait on a request queued behind it."""
        _, v2 = release_paths
        config = ServerConfig(threads=1, drain_timeout_s=20.0)
        harness = make_server(config=config)
        results = []
        swap = {}

        def issue():
            results.append(harness.get(f"/recommend?user={popular_user}"))

        def post_swap():
            started = time.perf_counter()
            swap["reply"] = harness.post(f"/admin/swap?path={quote(v2)}")
            swap["wall_s"] = time.perf_counter() - started

        plan = FaultPlan(
            [FaultSpec(site="serve.request", kind="slow", delay=1.0, repeat=True)]
        )
        with plan.installed():
            first = threading.Thread(target=issue)
            first.start()
            assert wait_for(
                lambda: harness.server.admission.depth >= 1, timeout_s=30.0
            ), "the first request never reached the executor"
            swapper = threading.Thread(target=post_swap)
            swapper.start()
            time.sleep(0.2)
            # Arrives while the swap is under way (before the flip on a
            # pool-bound swap): it must not be stuck behind the drain.
            second = threading.Thread(target=issue)
            second.start()
            for thread in (first, swapper, second):
                thread.join(timeout=60.0)

        status, payload = swap["reply"]
        assert status == 200
        assert payload["drained"] is True
        assert payload["drain_seconds"] < config.drain_timeout_s / 4
        assert swap["wall_s"] < config.drain_timeout_s / 4
        assert len(results) == 2
        assert all(status == 200 for status, _ in results)
