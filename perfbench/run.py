"""The repository's benchmark: three workloads over the two paper paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload publish --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``publish`` — Algorithm 1 end to end on a Flixster-shaped graph
  (``workload_publish``): fit (Louvain + noisy averages), save the
  release, warm the Katz kernel into a fresh similarity store, load and
  verify the release.
* ``serve`` — an open-loop Poisson stream against a ``repro serve run``
  child with two hot swaps (``workload_serve``).
* ``sweep`` — the Figure 1 grid through ``run_tradeoff`` for CN and KZ
  (``workload_sweep``).

End-to-end metrics (``--trace 0``), reported by every workload:

* ``setup_s`` — CPU seconds of set-up: the median over four fresh
  interpreters of importing the workload, plus the median of four
  set-ups in this process (on serve, plus the serving child's CPU up to
  readiness).
* ``cpu_ms_per_op`` — CPU per operation: process CPU per published unit
  (publish), server-child CPU per completed request with swaps included
  (serve), process CPU per grid pass (sweep).
* ``peak_rss_mb`` — peak RSS of the process doing the work.
* ``full_quality_share`` — operations that passed their output check
  and were answered at full quality (the personalized tier, on serve),
  over operations attempted.

Both CPU metrics are CPU rather than wall time, because the host's
steal shows in wall time and not in CPU time.  They are reported at a
fixed host speed: each measured CPU cost is scaled by the readings of a
reference workload (``reference.py``, see ``harness.HostGauge``) taken
right before and right after it, because on a shared VM the same work
takes up to half as long again from one minute to the next.  The raw
CPU figures are printed on the ``setup_cpu_s:``, ``op_cpu_ms:`` and
``server_cpu_ms_per_req:`` lines and the gauge readings on the
``host:`` line, before the JSON result.

``--trace 1`` runs the same workload with spans recorded around each
public layer call and reports the per-layer metrics of
``BENCHMARK.json`` instead (``perfbench/layers.json`` records, for
each, its source and the end-to-end metric it should move); a metric of
a layer the workload does not exercise reads 0.  Spans are written to
``.perfbench/traces/``.

Every process runs with one BLAS thread (set here, before numpy loads,
and inherited by children); ``engine.blas_cpu_wall_ratio`` measures what
default threading would cost.  The last line of standard output is the
JSON result.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_BLAS_ENV = {name: os.environ.get(name) for name in BLAS_VARS}
for _name in BLAS_VARS:
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 4
WORKLOADS = ("publish", "serve", "sweep")

from harness import (  # noqa: E402
    HostGauge,
    Tracer,
    cpu_ticks,
    median,
    scaled_median,
    steal_share,
)


# Per-layer metrics read straight off the spans: self CPU seconds per call.
SPAN_METRICS = {
    "graph.generate_s": "graph.generate",
    "community.louvain_s": "community.louvain",
    "release.noise_s": "release.noise",
    "release.save_s": "release.save",
    "release.load_s": "release.load",
    "compute.kernel_s": "compute.kernel",
    "cache.store_warm_s": "cache.store_warm",
    "similarity.rows_s": "similarity.warm",
    "experiments.context_s.cn": "experiments.context.cn",
    "experiments.context_s.kz": "experiments.context.kz",
    "engine.evaluate_many_s.cn": "engine.evaluate_many.cn",
    "engine.evaluate_many_s.kz": "engine.evaluate_many.kz",
}


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics a run reports, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def import_cpu_s(workload: str) -> float:
    """CPU seconds a fresh interpreter spends starting up and importing
    the workload's module (numpy and the program with it)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", f"import workload_{workload}"],
        cwd=HERE,
        check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


class Bench:
    """One run: its arguments, its counters and the metrics it reports."""

    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.tamper = args.tamper
        self.workdir = workdir
        self.default_blas_env = DEFAULT_BLAS_ENV
        self.tracer = Tracer() if args.trace else None
        self.gauge = HostGauge()
        self.child_setup_cpu_s = 0.0  # CPU of children a set-up started
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.e2e = {}
        self.layers = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def tracing(self, on: bool) -> None:
        """Wrap (or unwrap) the program's layer entry points in spans."""
        if self.tracer is None:
            return
        self.tracer.restore()
        if on:
            install_layer_spans(self.tracer)

    def layer_s(self, table: dict, name: str, per: float = 0.0) -> float:
        """Self CPU seconds of span ``name``: per call, or per ``per``."""
        row = table.get(name)
        if not row:
            return 0.0
        return row["cpu"] / (per or row["calls"])


def install_layer_spans(tracer: Tracer) -> None:
    """Spans around every public layer call the workloads go through."""
    import repro.compute.kernels as kernels
    import repro.core.batch as batch
    import repro.core.private as private
    import repro.experiments.engine as engine
    from repro.datasets.synthetic import SyntheticDatasetSpec
    from repro.experiments.evaluation import EvaluationContext

    tracer.install(SyntheticDatasetSpec, "generate", "graph.generate")
    tracer.install(private, "best_louvain_clustering", "community.louvain")
    tracer.install(private, "noisy_cluster_item_weights", "release.noise")
    for module in (kernels, batch, engine):
        tracer.install(module, "build_kernel", "compute.kernel")
    tracer.install(
        EvaluationContext,
        "build",
        lambda cls, dataset, measure, *a, **k: f"experiments.context.{measure.name}",
    )
    tracer.install(
        engine.SweepEngine,
        "evaluate_many",
        lambda self, context, *a, **k: f"engine.evaluate_many.{context.measure.name}",
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=WORKLOADS + ("all",),
        help="one workload, or 'all' to run each in its own process and "
        "print every metric as a table",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="input size; 'tiny' is for the benchmark's own smoke test",
    )
    parser.add_argument(
        "--tamper",
        action="store_true",
        help="corrupt the first release artifact before it is loaded "
        "(smoke-test hook: the unit must count as failed)",
    )
    parser.add_argument(
        "--blas-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: one evaluate_many at default BLAS
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.blas_probe:
        parser.error("--workload is required")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table of every metric."""
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]  # fmt: skip
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(
            f"{workload}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
        status = status or int(not result["correct"])
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")

    if args.workload == "all":
        return run_all(args)

    if args.blas_probe:
        import workload_sweep

        print(json.dumps(workload_sweep.blas_probe(args.seed, args.size)))
        return 0

    module = importlib.import_module(f"workload_{args.workload}")
    workdir = os.path.join(STATE_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    bench = Bench(args, workdir)
    state = None
    try:
        # (CPU seconds, host gauge before, host gauge after) per repeat
        imports, setups = [], []
        before = bench.gauge.measure()
        for _ in range(SETUP_REPEATS):
            cpu = import_cpu_s(args.workload)
            after = bench.gauge.measure()
            imports.append((cpu, before, after))
            before = after
        bench.tracing(True)
        for _ in range(SETUP_REPEATS):
            if state is not None:
                module.teardown(bench, state)
                state = None
            bench.child_setup_cpu_s = 0.0
            start = time.process_time()
            state = module.setup(bench)
            cpu = time.process_time() - start + bench.child_setup_cpu_s
            after = bench.gauge.measure()
            setups.append((cpu, before, after))
            before = after
        bench.tracing(False)
        raw = median([c for c, _, _ in imports]) + median([c for c, _, _ in setups])
        print(f"setup_cpu_s: {raw:.4f}")
        setup = scaled_median(bench, imports) + scaled_median(bench, setups)
        bench.e2e["setup_s"] = setup
        ticks0 = cpu_ticks()
        module.measure(bench, state)
        ticks1 = cpu_ticks()
    finally:
        if state is not None:
            module.teardown(bench, state)
        if bench.tracer is not None:
            bench.tracer.restore()
        bench.gauge.close()
        shutil.rmtree(workdir, ignore_errors=True)

    steal = steal_share(ticks0, ticks1)
    gauge = bench.gauge.samples
    print(
        f"host: steal_share={steal:.4f} "
        f"reference_ms={' '.join(f'{r * 1e3:.1f}' for r in gauge)}"
    )
    if bench.tracer is not None:
        table = bench.tracer.self_times()
        for metric, span_name in SPAN_METRICS.items():
            bench.layers.setdefault(metric, bench.layer_s(table, span_name))
        bench.layers["host.steal_share"] = steal
        bench.layers["host.calib_s"] = median(gauge)
        trace_path = os.path.join(
            STATE_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl"
        )
        bench.tracer.write(trace_path)
        print(f"trace: {len(bench.tracer.spans)} spans -> {trace_path}")

    for message in bench.errors[:20]:
        print(f"FAILED: {message}")
    units = declared_units(args.trace)
    if args.trace:  # a layer the workload does not exercise reads 0
        values = {name: bench.layers.get(name, 0.0) for name in units}
    else:
        values = bench.e2e
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": int(bench.attempted),
        "failed": int(bench.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
