"""``sweep``: the Figure 1 grid through ``run_tradeoff``, one pass per unit.

Set-up generates a Last.fm-shaped dataset (``lastfm_like(0.15)``: about
300 users, so one pass of the full grid fits several times into a run)
from the fixed graph seed.
One pass: ``run_tradeoff`` for CN and KZ over epsilon in
{inf, 1, 0.6, 0.1, 0.05, 0.01}, N in {10, 50, 100}, 10 repeats, with one
BLAS thread.  A pass counts as failed unless its NDCG table is
bit-identical to the first pass's, no cell fell back to the legacy
per-user path, and epsilon = inf scores at least as high as
epsilon = 0.01 for every (measure, N).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time

from harness import GRAPH_SEED, measure_units
from repro import CommonNeighbors, Katz, SyntheticDatasetSpec
from repro.experiments.tradeoff import run_tradeoff

SCALE = {"full": 0.15, "tiny": 0.05}
MEASURES = (CommonNeighbors, Katz)
LAYERS_COVERED = (
    "community.louvain",
    "experiments.context.",
    "engine.evaluate_many.",
    "compute.kernel",
)


def setup(bench):
    return SyntheticDatasetSpec.lastfm_like(SCALE[bench.size]).generate(seed=GRAPH_SEED)


def teardown(bench, dataset) -> None:
    pass


def _table(result) -> list:
    return [
        (c.measure, str(c.epsilon), c.n, c.ndcg_mean, c.ndcg_std) for c in result
    ]


def _check(bench, result, reference, index: int) -> None:
    table = _table(result)
    if reference and table != reference[0]:
        bench.fail(f"pass {index}: NDCG differs from pass 0")
    if result.stats is not None and result.stats.legacy_cells:
        bench.fail(f"pass {index}: {result.stats.legacy_cells} legacy cell(s)")
    scores = {(c.measure, c.epsilon, c.n): c.ndcg_mean for c in result}
    for (name, epsilon, n), score in scores.items():
        if math.isinf(epsilon) and score < scores[(name, 0.01, n)]:
            bench.fail(f"pass {index}: {name} N={n}: NDCG(inf) < NDCG(0.01)")
    if not reference:
        reference.append(table)


def measure(bench, dataset) -> None:
    reference: list = []
    results: list = []

    def one_pass(index: int) -> None:
        result = run_tradeoff(dataset, [m() for m in MEASURES], seed=bench.seed)
        _check(bench, result, reference, index)
        results.append(result)

    traced = measure_units(bench, one_pass, "sweep.pass")
    if traced is None:
        digest = hashlib.sha256(json.dumps(reference[0]).encode()).hexdigest()
        print(f"ndcg-digest: {digest}")
        return
    table, passes, pass_cpu = traced
    covered = sum(
        bench.layer_s(table, name, per=passes)
        for name in table
        if name.startswith(LAYERS_COVERED)
    )
    layers = bench.layers
    layers["trace.coverage_share"] = covered / pass_cpu
    layers["graph.users"] = dataset.social.num_users
    layers["graph.edges"] = dataset.social.num_edges
    stats = results[-1].stats
    evaluate_s = sum(
        row["wall"]
        for name, row in table.items()
        if name.startswith("engine.evaluate_many.")
    )
    layers["engine.repeat_ms"] = evaluate_s / passes / stats.repeats * 1e3
    layers["engine.legacy_cells"] = stats.legacy_cells
    for cell in results[-1]:
        if cell.n == 50 and cell.epsilon == 0.6:
            layers[f"metrics.ndcg50.{cell.measure}.eps0.6"] = cell.ndcg_mean
    layers["engine.blas_cpu_wall_ratio"] = _blas_ratio(bench)


def _blas_ratio(bench) -> float:
    """CPU/wall of one evaluate_many in a child at default BLAS threading."""
    env = dict(os.environ)
    for name, value in bench.default_blas_env.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, script, "--blas-probe",
         "--seed", str(bench.seed), "--size", bench.size],  # fmt: skip
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["cpu_s"] / probe["wall_s"]


def blas_probe(seed: int, size: str) -> dict:
    """One CN ``evaluate_many`` over the grid, timed in this process."""
    from repro.core.private import louvain_strategy
    from repro.experiments.engine import SweepEngine
    from repro.experiments.evaluation import EvaluationContext

    dataset = SyntheticDatasetSpec.lastfm_like(SCALE[size]).generate(seed=GRAPH_SEED)
    clustering = louvain_strategy(runs=10, seed=seed)(dataset.social)
    context = EvaluationContext.build(dataset, CommonNeighbors(), max_n=100, seed=seed)
    cells = [
        (epsilon, (10, 50, 100), 1 if math.isinf(epsilon) else 10)
        for epsilon in (math.inf, 1.0, 0.6, 0.1, 0.05, 0.01)
    ]
    engine = SweepEngine(dataset)
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        engine.evaluate_many(context, clustering, cells, base_seed=seed * 1000 + 1)
        return {
            "cpu_s": time.process_time() - cpu,
            "wall_s": time.perf_counter() - wall,
        }
    finally:
        engine.close()
