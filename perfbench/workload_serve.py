"""``serve``: an open-loop request stream against a serving child.

Set-up generates a Last.fm-shaped dataset (``lastfm_like(1.0)``: 1,974
users, 3,500 items) from the fixed graph seed, publishes two CN
releases (epsilon 0.5 and 1.0) and starts ``repro serve run --threads 2``
on the first, with one BLAS thread, in a child process so client and
server never share a GIL.

The run sends a seeded Poisson stream of ``GET /recommend`` (n=10) at
200 requests/s over at most ``nproc`` connections: 98% of requests go to
uniformly drawn known users and 2% to ids outside the graph.  At a third
and at two thirds of the window the run hot-swaps to the other release
through ``POST /admin/swap``.

A request counts as failed unless it returns 200; its generation is at
least that of every swap completed before it was sent; and, for a fixed
sample of users and for every unknown id, its items and tier equal
``ReleaseServer.recommend`` called in-process on the generation's
release.  A swap counts as failed unless it returns 200.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from harness import GRAPH_SEED, median, peak_rss_mb, percentile, process_cpu_s
from openloop import http_request, poisson_schedule, run_open_loop
from repro import CommonNeighbors, PrivateSocialRecommender, SyntheticDatasetSpec
from repro.core.persistence import PublishedRelease
from repro.core.private import louvain_strategy

SCALE = {"full": 1.0, "tiny": 0.1}
EPSILONS = (0.5, 1.0)
RATE = 200.0
N = 10
UNKNOWN_SHARE = 0.02
UNKNOWN_IDS = 50
CHECK_SAMPLE = 64
GAUGE_SAMPLES = 3  # host gauge readings right before and right after the window
HOST = "127.0.0.1"
READY_TIMEOUT_S = 120.0
# Two scoring threads, not one: the server drains the old generation on
# its scoring pool, so with a single thread a swap under load stalls
# every request for the full drain timeout (30 s).
SCORING_THREADS = 2


@dataclass
class State:
    dataset: object
    paths: list
    proc: subprocess.Popen
    port: int


def _start_server(bench, path: str) -> tuple:
    command = [
        sys.executable, "-m", "repro", "serve", "run",
        "--dataset", "lastfm", "--scale", str(SCALE[bench.size]),
        "--seed", str(GRAPH_SEED), "--release", path,
        "--host", HOST, "--port", "0", "--threads", str(SCORING_THREADS), "--n", str(N),
    ]  # fmt: skip
    log = open(os.path.join(bench.workdir, "server.log"), "ab")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log)
    log.close()
    deadline = time.monotonic() + READY_TIMEOUT_S
    line = b""
    while b"\n" not in line:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
        if not chunk:
            _stop_server(proc, None)
            raise RuntimeError(f"serving child did not start (see {log.name})")
        line += chunk
    bench.child_setup_cpu_s += process_cpu_s(proc.pid)
    # "serving on http://127.0.0.1:PORT (generation 0, ...)"
    port = int(line.split(b"http://", 1)[1].split(b" ", 1)[0].rsplit(b":", 1)[1])
    return proc, port


def _stop_server(proc: subprocess.Popen, port) -> None:
    if proc.poll() is None and port is not None:
        try:
            http_request(HOST, port, "POST", "/admin/shutdown", timeout=10)
        except OSError:
            pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def setup(bench) -> State:
    spec = SyntheticDatasetSpec.lastfm_like(SCALE[bench.size])
    dataset = spec.generate(seed=GRAPH_SEED)
    paths = []
    for index, epsilon in enumerate(EPSILONS):
        recommender = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=epsilon,
            clustering_strategy=louvain_strategy(runs=10, seed=bench.seed),
            seed=bench.seed * 1000 + index,
        )
        with bench.span("release.fit"):
            recommender.fit(dataset.social, dataset.preferences)
        path = os.path.join(bench.workdir, f"release-{index}.npz")
        with bench.span("release.save"):
            PublishedRelease.from_recommender(recommender).save(path)
        paths.append(path)
    proc, port = _start_server(bench, paths[0])
    return State(dataset, paths, proc, port)


def teardown(bench, state: State) -> None:
    _stop_server(state.proc, state.port)


def _reference(bench, state: State, probe_users: list) -> list:
    """Per release: the in-process server and its answers for the probes."""
    references = []
    for path in state.paths:
        with bench.span("release.load"):
            server = PublishedRelease.load(path).server(state.dataset.social)
        with bench.span("similarity.warm"):
            server.warm()
        expected = {}
        for user in probe_users:
            result = server.recommend(user, N)
            expected[user] = (result.tier, [[e.item, e.utility] for e in result.items])
        references.append((server, expected))
    return references


def measure(bench, state: State) -> None:
    rng = random.Random(bench.seed)
    known = state.dataset.social.users()
    unknown = [10_000_000 + k for k in range(UNKNOWN_IDS)]
    offsets = poisson_schedule(RATE, bench.seconds, rng)
    stream = [
        rng.choice(unknown) if rng.random() < UNKNOWN_SHARE else rng.choice(known)
        for _ in offsets
    ]
    sample = set(rng.sample(known, min(CHECK_SAMPLE, len(known)))) | set(unknown)
    bench.tracing(True)
    references = _reference(bench, state, sorted(sample))

    swaps = []  # (start, wall s, server CPU s, HTTP status, reply body)
    committed = {"generation": 0}

    def swapper(at: float) -> None:
        for k, offset in enumerate((bench.seconds / 3, 2 * bench.seconds / 3)):
            time.sleep(max(at + offset - time.perf_counter(), 0))
            target = state.paths[(k + 1) % 2]
            cpu0, wall0 = process_cpu_s(state.proc.pid), time.perf_counter()
            try:
                with bench.span("serve.swap"):
                    status, body = http_request(
                        HOST, state.port, "POST", f"/admin/swap?path={target}",
                        timeout=120,
                    )  # fmt: skip
            except OSError as exc:
                status, body = 0, {"error": str(exc)}
            wall = time.perf_counter() - wall0
            cpu = process_cpu_s(state.proc.pid) - cpu0
            swaps.append((wall0, wall, cpu, status, body))
            if status == 200:
                committed["generation"] = body["new_generation"]

    def before_send(outcome) -> None:
        outcome.context["min_generation"] = committed["generation"]

    refs = [bench.gauge.measure() for _ in range(GAUGE_SAMPLES)]
    start = time.perf_counter() + 0.05
    server_cpu0 = process_cpu_s(state.proc.pid)
    client_cpu0 = time.process_time()
    swap_thread = threading.Thread(target=swapper, args=(start,))
    swap_thread.start()
    outcomes = run_open_loop(
        HOST,
        state.port,
        stream,
        offsets,
        start,
        connections=len(os.sched_getaffinity(0)),
        n=N,
        before_send=before_send,
        span=bench.tracer.span if bench.tracer is not None else None,
    )
    swap_thread.join()
    bench.tracing(False)
    server_cpu = process_cpu_s(state.proc.pid) - server_cpu0
    client_cpu = time.process_time() - client_cpu0
    refs += [bench.gauge.measure() for _ in range(GAUGE_SAMPLES)]
    rss = peak_rss_mb(state.proc.pid)
    _, stats = http_request(HOST, state.port, "GET", "/stats")

    completed = personalized = 0
    for outcome in outcomes:
        bench.attempted += 1
        body = outcome.body
        if outcome.error is not None or outcome.status != 200:
            bench.fail(f"request {outcome.index}: {outcome.error or outcome.status}")
            continue
        completed += 1
        generation = body["generation"]
        if generation < outcome.context["min_generation"]:
            bench.fail(
                f"request {outcome.index}: generation {generation} after swap "
                f"to {outcome.context['min_generation']}"
            )
            continue
        if outcome.user in sample:
            expected = references[generation % 2][1][outcome.user]
            if (body["tier"], body["items"]) != expected:
                bench.fail(
                    f"request {outcome.index}: user {outcome.user} generation "
                    f"{generation} differs from the in-process release server"
                )
                continue
        if body["tier"] == "personalized":
            personalized += 1
    for _, _, _, status, body in swaps:
        bench.attempted += 1
        if status != 200:
            bench.fail(f"swap: {status} {body}")

    print(f"server_cpu_ms_per_req: {server_cpu * 1e3 / max(completed, 1):.4f}")
    bench.e2e["cpu_ms_per_op"] = (
        server_cpu * 1e3 / max(completed, 1) * bench.gauge.scale(refs)
    )
    bench.e2e["peak_rss_mb"] = rss
    bench.e2e["full_quality_share"] = personalized / len(outcomes)
    if bench.tracer is None:
        return

    layers = bench.layers
    # The server's CPU during a swap includes the requests it served
    # meanwhile; charge those at the rate of the rest of the window.
    done = [o for o in outcomes if o.error is None]
    during = sum(
        1
        for o in done
        if any(start <= o.done <= start + wall for start, wall, *_ in swaps)
    )
    swap_cpu = sum(cpu for _, _, cpu, _, _ in swaps)
    request_cpu = (server_cpu - swap_cpu) / max(completed - during, 1)
    swap_cpu = max(swap_cpu - during * request_cpu, 0.0)
    engine_us = _engine_replay(bench, references[0][0], stream)
    engine_mean_ms = sum(engine_us) / len(engine_us) / 1e3
    layers["serve.engine_us_mean"] = engine_mean_ms * 1e3
    layers["serve.engine_us_p50"] = median(engine_us)
    layers["serve.swap_cpu_ms_per_req"] = swap_cpu * 1e3 / max(completed, 1)
    layers["serve.http_cpu_ms_per_req"] = (
        (server_cpu - swap_cpu) * 1e3 / max(completed, 1) - engine_mean_ms
    )
    layers["serve.swap_s"] = sum(wall for _, wall, *_ in swaps) / max(len(swaps), 1)
    layers["serve.swap_drain_s"] = sum(
        body.get("drain_seconds", 0.0) for *_, body in swaps
    ) / max(len(swaps), 1)
    for tier, count in stats["tier_counts"].items():
        layers[f"serve.tier.{tier}"] = count
    layers["serve.admission.peak_depth"] = stats["peak_depth"]
    layers["serve.admission.shed"] = stats["shed"]
    latencies = [o.latency_s * 1e3 for o in done]
    layers["serve.p50_ms"] = percentile(latencies, 50)
    layers["serve.p99_ms"] = percentile(latencies, 99)
    layers["serve.samples"] = len(latencies)
    layers["serve.gen_late_p99_ms"] = percentile([o.late_s * 1e3 for o in done], 99)
    layers["serve.client_cpu_ms_per_req"] = client_cpu * 1e3 / max(len(outcomes), 1)
    layers["graph.users"] = state.dataset.social.num_users
    layers["graph.edges"] = state.dataset.social.num_edges


def _engine_replay(bench, server, stream: list) -> list:
    """Per-call microseconds of in-process ``recommend`` over the stream,
    untraced; a second, traced replay gives the tracing overhead."""
    timings = []
    plain = time.process_time()
    for user in stream:
        start = time.perf_counter()
        server.recommend(user, N)
        timings.append((time.perf_counter() - start) * 1e6)
    plain = time.process_time() - plain
    traced = time.process_time()
    for user in stream:
        with bench.span("serve.engine"):
            server.recommend(user, N)
    traced = time.process_time() - traced
    bench.layers["trace.overhead_share"] = traced / plain - 1.0
    return timings
