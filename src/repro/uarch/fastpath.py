"""Global switch between the vectorized fast path and the reference path.

The simulator keeps two implementations of its hot loops: the original
scalar *reference* path (one Python-level step per access/instruction)
and a vectorized *fast* path (NumPy sweep priming, batched replay of
the Figure 4 loop, array-backed activity recording).  The two are
bit-identical — ``tests/core/test_fastpath_bit_identity.py`` proves it
on every paper event — so the fast path is on by default and the
reference path is kept as the executable specification.  A loop the
batched replay cannot take runs on the reference interpreter even on
the fast path.

Control:

* ``SAVAT_REFERENCE_PATH=1`` in the environment forces the reference
  path process-wide (workers spawned by the campaign executor inherit
  it).
* :func:`use_reference_path` / :func:`use_fast_path` force a path for a
  ``with`` block (tests use these to compare the two).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Version of the simulator's observable semantics.  Bump whenever a
#: change to the microarchitectural model, the activity recording, or
#: the kernel codegen alters the traces it produces: cached kernel
#: traces (:mod:`repro.core.trace_cache`) embed this in their content
#: key, so stale traces from an older simulator miss instead of
#: replaying outdated activity.
UARCH_SCHEMA_VERSION = 1

#: Environment variable that disables the fast path when set truthy.
REFERENCE_PATH_ENV = "SAVAT_REFERENCE_PATH"

#: Environment variable that, set falsy, disables periodic steady-state
#: extrapolation during sweep priming and the memo of lone-ring steady
#: states (both on by default; the result is bit-identical either way,
#: so this knob exists for debugging and for timing plain replay).
PRIME_EXTRAPOLATE_ENV = "SAVAT_PRIME_EXTRAPOLATE"

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}

#: Per-process override installed by the context managers (None: follow
#: the environment).
_forced: bool | None = None


def fast_path_enabled() -> bool:
    """True when the vectorized fast path should be used."""
    if _forced is not None:
        return _forced
    return os.environ.get(REFERENCE_PATH_ENV, "").strip().lower() not in _TRUTHY


def prime_extrapolation_enabled() -> bool:
    """True when sweep priming may extrapolate the pass-periodic steady state."""
    return os.environ.get(PRIME_EXTRAPOLATE_ENV, "").strip().lower() not in _FALSY


def set_fast_path(enabled: bool | None) -> None:
    """Force the fast path on/off, or ``None`` to follow the environment."""
    global _forced
    _forced = enabled


@contextmanager
def use_reference_path() -> Iterator[None]:
    """Force the scalar reference path within a ``with`` block."""
    previous = _forced
    set_fast_path(False)
    try:
        yield
    finally:
        set_fast_path(previous)


@contextmanager
def use_fast_path() -> Iterator[None]:
    """Force the vectorized fast path within a ``with`` block."""
    previous = _forced
    set_fast_path(True)
    try:
        yield
    finally:
        set_fast_path(previous)


__all__ = [
    "PRIME_EXTRAPOLATE_ENV",
    "REFERENCE_PATH_ENV",
    "UARCH_SCHEMA_VERSION",
    "fast_path_enabled",
    "prime_extrapolation_enabled",
    "set_fast_path",
    "use_fast_path",
    "use_reference_path",
]
