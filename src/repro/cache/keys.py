"""Content-addressed cache keys for similarity kernels.

The all-pairs similarity matrices cached by :mod:`repro.cache.store` are
pure functions of *public* inputs: the social graph's structure and the
similarity measure's parameters.  A cache key must therefore change
exactly when either of those changes — and must *not* change with
construction order, process hash seeds, or dict iteration order, so that
two independent loads of the same crawl share one artifact.

The key is a SHA-256 over a canonical byte encoding of:

- the kernel format version (so on-disk layout changes invalidate
  everything at once),
- the sorted node set (isolated nodes change the matrix shape),
- the sorted edge set,
- the measure's registry name and its constructor parameters.

Identifiers are tagged with their type (``i:`` for int, ``s:`` for str)
before sorting, so the int user ``1`` and the str user ``"1"`` never
collide and heterogeneous graphs still order deterministically.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.social_graph import user_sort_key

if TYPE_CHECKING:  # import only for annotations; keeps this module
    from repro.similarity.base import SimilarityMeasure  # cycle-free

__all__ = [
    "KERNEL_FORMAT_VERSION",
    "GraphFingerprintHasher",
    "graph_fingerprint",
    "measure_fingerprint",
    "similarity_cache_key",
]

#: Bump to invalidate every persisted kernel when the artifact layout or
#: the kernel math changes incompatibly.  v3: kernel rows follow the
#: canonical ``stable_user_order`` instead of insertion order.
KERNEL_FORMAT_VERSION = 3


def _tag(identifier) -> str:
    """A type-tagged, sortable text form of a user identifier."""
    if isinstance(identifier, bool) or not isinstance(identifier, (int, str)):
        raise TypeError(
            f"user identifier {identifier!r} is not cacheable; "
            f"only int and str identifiers can be content-hashed"
        )
    if isinstance(identifier, int):
        return f"i:{identifier}"
    return f"s:{identifier}"


class GraphFingerprintHasher:
    """Incremental :func:`graph_fingerprint` over streamed, sorted input.

    The out-of-core CSR builder (:mod:`repro.graph.bigcsr`) never holds
    the whole edge set, but it *does* emit users and edges in exactly the
    canonical fingerprint order (contiguous int users ``0..n-1``, then
    undirected edges ``(u, v)`` with ``u < v`` ascending).  This hasher
    consumes that stream and produces a digest bit-identical to
    :func:`graph_fingerprint` of the equivalent in-memory
    :class:`~repro.graph.social_graph.SocialGraph` — so the two
    representations share one content-addressed kernel cache.

    Callers are responsible for the ordering contract; the hasher only
    encodes.
    """

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self._sealed_users = False

    def add_int_users(self, count: int, start: int = 0) -> None:
        """Hash the contiguous int users ``start .. start+count-1``."""
        self.add_sorted_int_users(range(start, start + count))

    def add_sorted_int_users(self, users) -> None:
        """Hash int users given as an ascending, sliceable sequence."""
        if self._sealed_users:
            raise ValueError("users must be hashed before any edges")
        digest = self._digest
        for base in range(0, len(users), 65536):
            chunk = users[base : base + 65536]
            digest.update("".join(f"i:{u}\x00" for u in chunk).encode("ascii"))

    def add_sorted_int_edges(self, u_array, v_array) -> None:
        """Hash undirected int edges ``(u, v)``, ``u < v``, ascending.

        Accepts numpy arrays (or sequences); successive calls must
        continue the global ``(u, v)`` sort order.
        """
        if not self._sealed_users:
            self._digest.update(b"\x01")
            self._sealed_users = True
        digest = self._digest
        u_list = u_array.tolist() if hasattr(u_array, "tolist") else list(u_array)
        v_list = v_array.tolist() if hasattr(v_array, "tolist") else list(v_array)
        for base in range(0, len(u_list), 65536):
            digest.update(
                "".join(
                    f"i:{u}\x00i:{v}\x00"
                    for u, v in zip(
                        u_list[base : base + 65536], v_list[base : base + 65536]
                    )
                ).encode("ascii")
            )

    def hexdigest(self) -> str:
        """The fingerprint accumulated so far (users sealed if not yet)."""
        if not self._sealed_users:
            digest = self._digest.copy()
            digest.update(b"\x01")
            return digest.hexdigest()
        return self._digest.hexdigest()


def graph_fingerprint(graph) -> str:
    """SHA-256 hex digest of the graph's structure.

    Invariant under node/edge insertion order; sensitive to any node or
    edge added or removed.  Graph representations that precompute their
    own canonical fingerprint (``BigCSRGraph`` stores it in the artifact
    metadata) short-circuit here, so content-addressing a million-user
    mmap'd graph never walks its edges in Python.  Graphs whose users are
    all plain ints sort in numpy instead of by tagged keys; the digest is
    the same.

    Raises:
        TypeError: for user identifiers that are not int or str.
    """
    precomputed = getattr(graph, "fingerprint", None)
    if isinstance(precomputed, str) and precomputed:
        return precomputed
    users = graph.users()
    if all(type(user) is int for user in users):
        try:
            return _int_graph_fingerprint(graph, users)
        except OverflowError:  # an id beyond int64: the tagged path takes it
            pass
    return _tagged_graph_fingerprint(graph, users)


def _int_graph_fingerprint(graph, users) -> str:
    """:func:`graph_fingerprint` of an all-int graph, sorted in numpy.

    Ints tag as ``i:<decimal>`` and sort numerically, so feeding the
    numerically sorted ids and ``(min, max)`` edge pairs to
    :class:`GraphFingerprintHasher` yields the tagged path's exact bytes.
    """
    ids = np.sort(np.fromiter(users, np.int64, len(users)))
    pairs = np.fromiter(
        chain.from_iterable(graph.edges()), np.int64, 2 * graph.num_edges
    ).reshape(-1, 2)
    hasher = GraphFingerprintHasher()
    n = len(ids)
    if n == 0 or (ids[0] == 0 and ids[-1] == n - 1):  # ids are distinct
        hasher.add_int_users(n)
    else:
        hasher.add_sorted_int_users(ids.tolist())
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    order = np.lexsort((hi, lo))
    hasher.add_sorted_int_edges(lo[order], hi[order])
    return hasher.hexdigest()


def _tagged_graph_fingerprint(graph, users) -> str:
    """:func:`graph_fingerprint` over type-tagged ids, for any id types."""
    digest = hashlib.sha256()
    # The same canonical order SocialGraph.stable_user_order / to_csr use,
    # so a cached kernel's row order is reconstructible from its key inputs.
    for user in sorted(users, key=user_sort_key):
        digest.update(_tag(user).encode("utf-8"))
        digest.update(b"\x00")
    digest.update(b"\x01")
    edges = sorted(
        (sorted(edge, key=user_sort_key) for edge in graph.edges()),
        key=lambda edge: (user_sort_key(edge[0]), user_sort_key(edge[1])),
    )
    for u, v in edges:
        digest.update(_tag(u).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(_tag(v).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def measure_fingerprint(measure: SimilarityMeasure) -> str:
    """A canonical text form of the measure's identity and parameters.

    Uses the registry name plus every public constructor attribute
    (``vars``), JSON-serialised with sorted keys — so ``Katz(alpha=0.05)``
    and ``Katz(alpha=0.1)`` key differently while two fresh
    ``CommonNeighbors()`` instances key identically.
    """
    params = {
        name: value
        for name, value in sorted(vars(measure).items())
        if not name.startswith("_")
    }
    return json.dumps(
        {"measure": measure.name, "params": params},
        sort_keys=True,
        default=repr,
    )


def similarity_cache_key(graph, measure: SimilarityMeasure) -> str:
    """The content-hash key a kernel artifact is stored under.

    Raises:
        TypeError: for user identifiers that are not int or str.
    """
    digest = hashlib.sha256()
    digest.update(f"kernel-v{KERNEL_FORMAT_VERSION}".encode("ascii"))
    digest.update(b"\x00")
    digest.update(graph_fingerprint(graph).encode("ascii"))
    digest.update(b"\x00")
    digest.update(measure_fingerprint(measure).encode("utf-8"))
    return digest.hexdigest()
