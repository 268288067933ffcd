"""Checkpoint/resume for long experiment sweeps.

A Figure 1/2-style sweep is a grid of independent cells, each seeded
from the master seed alone — so a killed run loses nothing but time *if*
completed cells were persisted.  :class:`SweepCheckpoint` is that
persistence: an append-only JSON-lines file, one record per completed
cell, fsynced per append so a kill between cells never loses a finished
cell and never records a half-finished one.

Because every cell re-derives its RNG stream from ``(master seed, cell
key)`` and not from how many cells ran before it, a resumed sweep
produces results *identical* to an uninterrupted run — the property the
resume tests assert.

Usage::

    cells = run_tradeoff(dataset, measures, checkpoint="sweep.jsonl", ...)
    # kill it partway; re-running the same call completes the grid,
    # recomputing nothing that already finished.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.obs.registry import incr
from repro.resilience.atomic import fsync_directory

__all__ = ["SweepCheckpoint", "encode_epsilon", "decode_epsilon", "fsync_directory"]


def encode_epsilon(epsilon: float) -> str:
    """JSON-safe epsilon label (``math.inf`` round-trips as ``"inf"``)."""
    return "inf" if math.isinf(epsilon) else repr(float(epsilon))


def decode_epsilon(label: str) -> float:
    return math.inf if label == "inf" else float(label)


class SweepCheckpoint:
    """Append-only cell store for resumable sweeps.

    Args:
        path: the JSON-lines file; created on first record.  Existing
            records are loaded eagerly, so construction doubles as
            resume.

    Raises:
        ExperimentError: for an unreadable or syntactically broken
            checkpoint file (a truncated final line — the signature of a
            kill mid-append — is tolerated and dropped).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._cells: Dict[Tuple[str, ...], dict] = {}
        #: duplicate cell keys seen while loading (last record wins; the
        #: count is also published as ``checkpoint.duplicate_cells``).
        self.duplicate_cells = 0
        self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise ExperimentError(
                f"cannot read checkpoint {self.path!r}: {exc}"
            ) from exc
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = tuple(record["key"])
                payload = record["payload"]
            except (ValueError, KeyError, TypeError) as exc:
                if index == len(lines) - 1:
                    # A torn final line is exactly what a kill mid-append
                    # leaves behind; the cell simply reruns.
                    continue
                raise ExperimentError(
                    f"checkpoint {self.path!r} line {index + 1} is corrupt: {exc}"
                ) from exc
            if key in self._cells:
                # Concurrent workers can legitimately both finish a cell
                # (lease reclaim race); the records are bit-identical, but
                # a duplicate is still worth surfacing to telemetry.
                incr("checkpoint.duplicate_cells")
                self.duplicate_cells += 1
            self._cells[key] = payload

    def record(self, key: Iterable[str], payload: dict) -> None:
        """Durably append one completed cell.

        The record is flushed and fsynced; on the append that *creates*
        the file the parent directory is fsynced too, so a brand-new
        checkpoint cannot vanish wholesale on power loss (an fsynced file
        whose directory entry was never persisted is gone just the same).
        """
        key = tuple(str(part) for part in key)
        line = json.dumps({"key": list(key), "payload": payload})
        created = not os.path.exists(self.path)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._cells[key] = payload

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, key: Iterable[str]) -> Optional[dict]:
        """The stored payload for ``key``, or None if not yet completed."""
        return self._cells.get(tuple(str(part) for part in key))

    def __contains__(self, key: Iterable[str]) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._cells)

    def clear(self) -> None:
        """Delete the checkpoint file and forget all cells."""
        self._cells.clear()
        if os.path.exists(self.path):
            os.remove(self.path)
