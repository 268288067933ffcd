"""The one atomic-write helper every durable single-file artifact uses."""

import os

import pytest

import repro.resilience.atomic as atomic
from repro.resilience.atomic import atomic_write


def test_writes_the_bytes_and_fsyncs_the_parent_directory(tmp_path, monkeypatch):
    synced = []
    monkeypatch.setattr(atomic, "fsync_directory", synced.append)
    path = str(tmp_path / "artifact.bin")
    atomic_write(path, lambda handle: handle.write(b"payload"))
    with open(path, "rb") as handle:
        assert handle.read() == b"payload"
    assert synced == [str(tmp_path)]
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_failing_writer_leaves_the_previous_file_and_no_temp(tmp_path):
    path = str(tmp_path / "artifact.bin")
    atomic_write(path, lambda handle: handle.write(b"old"))

    def broken(handle):
        handle.write(b"half")
        raise OSError("disk full")

    with pytest.raises(OSError):
        atomic_write(path, broken)
    assert os.listdir(tmp_path) == ["artifact.bin"]
    with open(path, "rb") as handle:
        assert handle.read() == b"old"
