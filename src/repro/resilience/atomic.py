"""Crash-safe file writes: one atomic-replace helper, one directory fsync.

Every durable artifact in the library — release archives, kernel-store
artifacts, release memory-map caches, work-queue JSON records — is
written the same way: into a uniquely named sibling temp file, flushed
and fsynced, moved over the target with ``os.replace``, and then the
parent directory is fsynced so the new directory entry survives power
loss too.  A crash at any point leaves either the previous file or the
new one, never a torn one, and no temp file outlives a failed write.
"""

from __future__ import annotations

import os
import uuid
from typing import BinaryIO, Callable, Optional

from repro.resilience.faults import fault_point

__all__ = ["atomic_write", "fsync_directory"]


def fsync_directory(path: str) -> None:
    """Fsync a directory so a freshly created or renamed entry is durable.

    Filesystems that do not support opening directories (or fsyncing
    them) are tolerated silently — durability degrades to the platform's
    guarantee.  An empty ``path`` means the current directory.
    """
    try:
        fd = os.open(path if path else ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: str,
    write: Callable[[BinaryIO], None],
    fault_site: Optional[str] = None,
) -> None:
    """Replace ``path`` with the bytes ``write(handle)`` produces, atomically.

    Args:
        path: the target file.
        write: fills the binary temp-file handle.
        fault_site: a :func:`~repro.resilience.faults.fault_point` site
            fired with the fsynced temp file's path just before the
            replace, for crash-window tests.

    Raises:
        OSError: for IO failures while writing (the temp file is removed).
    """
    tmp_path = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    try:
        with open(tmp_path, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        if fault_site is not None:
            fault_point(fault_site, path=tmp_path)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    fsync_directory(os.path.dirname(os.path.abspath(path)))
