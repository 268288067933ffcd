"""A fixed reference workload that gauges how fast the host runs right now.

Runs as a helper process of the benchmark: for every line read from
standard input it runs the workload once and prints the thread CPU
seconds it took.  The workload scatters increments at random positions
of a 32 MiB array, so its speed depends on the shared last-level cache
and memory, which is where the neighbours on a shared VM slow the
program down.  It runs in its own process so its memory never shows in
the peak RSS of the process the benchmark measures.
"""

import sys
import time

import numpy as np

SIZE = 4_000_000
PASSES = 2


def main() -> None:
    accumulator = np.zeros(SIZE)
    index = np.random.default_rng(0).integers(0, SIZE, SIZE).astype(np.int32)
    for _ in sys.stdin:
        start = time.thread_time()
        for _ in range(PASSES):
            np.add.at(accumulator, index, 1.0)
        print(f"{time.thread_time() - start:.9f}", flush=True)


if __name__ == "__main__":
    main()
