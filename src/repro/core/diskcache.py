"""Shared on-disk cache discipline: atomic writes and quarantine moves.

Both persistent caches in the executor stack — the per-cell campaign
:class:`~repro.core.executor.ResultCache` and the cross-campaign
:class:`~repro.core.trace_cache.TraceCache` — follow the same two rules:

* **Writes are atomic.**  Every payload goes to a same-directory
  temporary file, is flushed and fsynced, and only then renamed over the
  target with :func:`os.replace`.  A process killed mid-write can leave
  an orphaned ``*.tmp`` file but never a truncated file under a live
  name, so concurrent workers may share a cache directory without
  locking.
* **Bad entries are quarantined, never deleted.**  An unreadable,
  truncated, or wrong-shaped entry is moved into a ``quarantine/``
  directory — keeping its identifying key as a filename prefix, and
  never overwriting an earlier quarantined file of the same name — so
  repeated corruption stays individually inspectable post mortem while
  the caller simply recomputes the entry.

This module is the single implementation of both rules, plus
:func:`require_directory`, the up-front check both caches make on
their directory, and :func:`read_npz`, the trace cache's fast reader
for its ``.npz`` entries.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zipfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

#: Fixed-size part of a zip local file header; the member name and the
#: extra field follow it, then the member's bytes.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_LOCAL_SIGNATURE = b"PK\x03\x04"


def require_directory(path: Path, what: str) -> None:
    """Fail with one line unless ``path`` is, or can become, a directory.

    ``path`` need not exist yet, but its nearest existing ancestor (the
    path itself included) must be a directory.  A cache pointed at a
    file would otherwise fail on every entry it touches — each miss
    taken for a corrupt entry, each store for a transient fault.
    """
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigurationError(
                    f"{what} {str(path)!r} is unusable: "
                    f"{str(existing)!r} is not a directory"
                )
            return


def atomic_write(directory: Path, target: Path, writer: Callable) -> None:
    """Write ``target`` via a same-directory temp file and ``os.replace``.

    ``writer`` receives the open binary handle.  The handle is flushed
    and fsynced before the rename, so a process killed mid-write can
    never leave a truncated file under the target name — the worst case
    is an orphaned ``*.tmp`` file.
    """
    descriptor, temp_name = tempfile.mkstemp(
        dir=directory, prefix=target.stem + "_", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def quarantine_entry(quarantine_dir: Path, key: str, path: Path) -> Path | None:
    """Move a bad cache entry into ``quarantine_dir``.

    The entry keeps ``key`` as a filename prefix, and an existing
    quarantined file of the same name is never overwritten (a numeric
    suffix is appended instead), so repeated corruption of the same
    entry stays individually inspectable.  Returns the quarantined
    path, or ``None`` when the entry vanished before the move (another
    process already quarantined it).
    """
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    base = f"{key}_{path.name}"
    target = quarantine_dir / base
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine_dir / f"{base}.{suffix}"
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    return target


def read_npz(path: Path) -> dict[str, np.ndarray]:
    """Every array of an uncompressed ``.npz`` file (``np.savez`` output).

    ``np.load`` streams each member through :mod:`zipfile`, which reads
    it in small chunks and CRC-checks every byte; for a multi-megabyte
    trace that is about three quarters of a cache hit's cost.  Here
    each ``.npy`` member is read straight from its offset with
    ``np.fromfile``.  The CRC is not checked: entries are only ever
    written atomically (see :func:`atomic_write`), and callers validate
    what they read.  A member that is compressed, not ``.npy``, or not
    exactly consumed by its array raises :class:`ValueError`, so a
    malformed file is quarantined like any other unreadable entry.
    """
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as handle:
        with zipfile.ZipFile(handle) as archive:
            members = archive.infolist()
        for member in members:
            if (
                member.compress_type != zipfile.ZIP_STORED
                or not member.filename.endswith(".npy")
            ):
                raise ValueError(f"{path.name}: unexpected member {member.filename!r}")
            handle.seek(member.header_offset)
            header = handle.read(_LOCAL_HEADER.size)
            if len(header) != _LOCAL_HEADER.size:
                raise ValueError(f"{path.name}: truncated member {member.filename!r}")
            signature, name_length, extra_length = _LOCAL_HEADER.unpack(header)
            if signature != _LOCAL_SIGNATURE:
                raise ValueError(f"{path.name}: bad header of {member.filename!r}")
            start = member.header_offset + _LOCAL_HEADER.size + name_length + extra_length
            handle.seek(start)
            array = np.lib.format.read_array(handle, allow_pickle=False)
            if handle.tell() - start != member.file_size:
                raise ValueError(f"{path.name}: member {member.filename!r} has the wrong size")
            arrays[member.filename[: -len(".npy")]] = array
    return arrays


__all__ = ["atomic_write", "quarantine_entry", "read_npz", "require_directory"]
