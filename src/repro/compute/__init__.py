"""Vectorised sparse compute for kernels and clustering.

``repro.compute`` is the construction-speed layer: it builds similarity
kernels on scipy CSR algebra in bounded row blocks.  There is one path per
measure, chosen from the measure itself: cn/aa/ra, Graph Distance and Katz
l <= 3 take the blocked builders, every other measure the per-row
:func:`python_kernel`.  The Louvain clustering runs on the same shared CSR
export (:mod:`repro.community.louvain`).
"""

from repro.compute.adjacency import (
    CSRAdjacency,
    adjacency_csr,
    clear_adjacency_cache,
)
from repro.compute.kernels import (
    DEFAULT_BLOCK_SIZE,
    build_kernel,
    python_kernel,
    supports_vectorized_kernel,
)
from repro.compute.stats import ComputeStats

__all__ = [
    "CSRAdjacency",
    "ComputeStats",
    "DEFAULT_BLOCK_SIZE",
    "adjacency_csr",
    "build_kernel",
    "clear_adjacency_cache",
    "python_kernel",
    "supports_vectorized_kernel",
]
