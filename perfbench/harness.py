"""Shared machinery of the benchmark: spans, host diagnostics, statistics.

Everything here runs in the benchmark's own process and observes the
program from outside: spans are recorded around calls into the
program's public layers, never by switching on ``repro.obs``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence


# The public social graph of every workload is generated from this fixed
# seed, so that runs with different ``--seed`` values measure the same
# graph: on 4k-user synthetic graphs the Katz kernel's size alone varies
# by half from one graph seed to the next, which would swamp any change
# under test.  ``--seed`` drives everything else: Louvain restarts,
# Laplace noise, the epsilon order, the request stream and the samples.
GRAPH_SEED = 0

# CPU costs are reported at the host speed at which one run of
# ``reference.py`` takes this many CPU seconds (about its median on the
# 2-vCPU VM the bounds in BENCHMARK.json were set on).
REFERENCE_S = 0.14


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# repeated units of work (publish, sweep)
# ----------------------------------------------------------------------
def run_units(bench, seconds: float, unit: Callable[[int], None], name: str) -> list:
    """Call ``unit(index)`` until ``seconds`` have passed, at least once.

    Returns per call its process CPU seconds and the host gauge's
    readings right before and right after it.
    """
    costs = []
    before = bench.gauge.measure()
    start = time.perf_counter()
    while not costs or time.perf_counter() - start < seconds:
        cpu = time.process_time()
        with bench.span(name):
            unit(bench.attempted)
        cpu = time.process_time() - cpu
        after = bench.gauge.measure()
        costs.append((cpu, before, after))
        before = after
        bench.attempted += 1
    return costs


def scaled_median(bench, costs: list) -> float:
    """Median unit CPU seconds at the fixed host speed."""
    return median([cpu * bench.gauge.scale(refs) for cpu, *refs in costs])


def measure_units(bench, unit: Callable[[int], None], name: str):
    """The measured window of a unit workload.

    Untraced, it reports the end-to-end metrics and returns None.
    Traced, it runs an untraced half and then a traced half, reports the
    tracing overhead, and returns the traced half's span table, its
    number of units and their mean raw CPU seconds (the same basis as
    the per-unit self times taken from the table).
    """
    if bench.tracer is None:
        costs = run_units(bench, bench.seconds, unit, name)
        print("op_cpu_ms: " + " ".join(f"{c * 1e3:.1f}" for c, _, _ in costs))
        bench.e2e["cpu_ms_per_op"] = scaled_median(bench, costs) * 1e3
        bench.e2e["peak_rss_mb"] = peak_rss_mb()
        bench.e2e["full_quality_share"] = 1.0 - bench.failed / bench.attempted
        return None
    plain = run_units(bench, bench.seconds / 2, unit, name)
    since = len(bench.tracer.spans)
    bench.tracing(True)
    traced = run_units(bench, bench.seconds / 2, unit, name)
    bench.tracing(False)
    overhead = scaled_median(bench, traced) / scaled_median(bench, plain) - 1.0
    bench.layers["trace.overhead_share"] = overhead
    table = bench.tracer.self_times(since)
    return table, len(traced), sum(cpu for cpu, _, _ in traced) / len(traced)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded around calls into the program.

    A span carries its name, its parent span, wall start/end and the
    CPU time its thread spent inside it.  Nesting is tracked per thread,
    so a span's *self* time is its duration minus that of its direct
    children.  ``install`` wraps a module or class attribute so every
    call through it becomes a span; ``restore`` undoes all wrapping.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "thread": threading.get_ident(),
            "child_wall": 0.0,
            "child_cpu": 0.0,
        }
        stack.append(record)
        cpu0 = time.thread_time()
        wall0 = time.perf_counter()
        try:
            yield record
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.thread_time() - cpu0
            stack.pop()
            record["start"] = wall0
            record["wall"] = wall
            record["cpu"] = cpu
            if stack:
                stack[-1]["child_wall"] += wall
                stack[-1]["child_cpu"] += cpu
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable, name) -> Callable:
        """``fn`` recording a span per call; ``name`` may be a callable of
        the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    def install(self, owner, attr: str, name) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # keeps classmethod wrappers
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name))
        else:
            replacement = self.wrap(original, name)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and self wall/CPU seconds, over the
        spans recorded after the first ``since``."""
        table: Dict[str, Dict[str, float]] = {}
        for record in self.spans[since:]:
            row = table.setdefault(
                record["name"], {"calls": 0, "wall": 0.0, "cpu": 0.0}
            )
            row["calls"] += 1
            row["wall"] += record["wall"] - record["child_wall"]
            row["cpu"] += record["cpu"] - record["child_cpu"]
        return table

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# host and process diagnostics
# ----------------------------------------------------------------------
def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of /proc/stat (all columns)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of all CPU ticks between two samples that the host stole."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest columns are already inside user/nice
    return delta[7] / total if total > 0 else 0.0


class HostGauge:
    """Measures host speed with ``reference.py`` in a helper process.

    On a shared VM the same work takes up to half as long again from one
    minute to the next, because neighbours contend for the cache and
    memory.  ``measure`` runs the fixed reference workload once, on the
    caller's CPU while the caller waits, and returns its CPU seconds.  A
    CPU cost divided by the readings taken next to it, times
    ``REFERENCE_S``, is that cost at a fixed host speed.  Over sets of
    ten runs per workload on a 2-vCPU VM this cut the run-to-run spread
    (IQR/median) of the sweep's CPU per pass from 0.23-0.38 raw to
    0.07-0.15 and lowered that of serve's CPU per request and of the
    set-ups; the publish unit's CPU it tracks only in part, so there the
    spread came out lower in half the sets and higher in the other half.
    """

    def __init__(self) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        script = os.path.join(here, "reference.py")
        self.proc = subprocess.Popen(
            [sys.executable, script], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self.samples: List[float] = []

    def measure(self) -> float:
        # Run it on the CPU this thread is on: each vCPU of a shared VM
        # drifts on its own, and the reading is meant for this one.
        with open("/proc/thread-self/stat", encoding="ascii") as handle:
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])  # field 39
        os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference workload exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def scale(self, samples: Sequence[float]) -> float:
        """Factor that takes a CPU cost measured next to ``samples`` to
        the fixed host speed."""
        return REFERENCE_S / median(samples)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def process_cpu_s(pid: int) -> float:
    """CPU seconds (all threads, live or exited) of another process.

    Uses the kernel's per-process CPU clock, which has nanosecond
    resolution, unlike the tick-resolution counters in /proc/<pid>/stat.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid``, or of this process, in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
