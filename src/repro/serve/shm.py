"""Shared-memory operand segments for the BLAS service.

Ownership discipline (see :mod:`repro.serve.protocol`): the **client**
creates every segment and is the only side that ever unlinks one; the
**server** attaches read/write and merely closes its mapping.  That makes
segment lifetime crash-safe in both directions — a SIGKILLed worker holds
no client memory, and a vanished client leaves only segments its own
process (or the OS at reboot) reclaims.

CPython < 3.13 wrinkle: attaching to an existing segment *registers* it
with the ``multiprocessing.resource_tracker``, which then "helpfully"
unlinks it when the attaching process exits — destroying memory it does
not own (bpo-39959).  :func:`attach_array` unregisters the attachment so
the creator stays the sole owner; on 3.13+ it uses ``track=False``.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

from .protocol import ArrayRef, ProtocolError

#: refuse to attach anything larger than this (malformed/hostile headers)
MAX_SEGMENT_BYTES = 1 << 31

_SUPPORTS_TRACK: Optional[bool] = None

#: segment names created by THIS process; an in-process attach (the
#: in-thread test worker) must not unregister them — the creator's
#: resource_tracker registration has to survive until its unlink
_CREATED_HERE = set()


def _supports_track() -> bool:
    import inspect

    global _SUPPORTS_TRACK
    if _SUPPORTS_TRACK is None:
        params = inspect.signature(
            shared_memory.SharedMemory.__init__).parameters
        _SUPPORTS_TRACK = "track" in params
    return _SUPPORTS_TRACK


def create_array(shape: Tuple[int, ...],
                 dtype: str = "float64",
                 fill: Optional[np.ndarray] = None,
                 prefix: str = "rblas") -> Tuple[shared_memory.SharedMemory,
                                                 np.ndarray, ArrayRef]:
    """Create a client-owned segment sized for ``shape`` and map it.

    Returns ``(segment, array_view, descriptor)``.  The caller must
    eventually ``close()`` **and** ``unlink()`` the segment (use
    :class:`SegmentSet`).
    """
    dt = np.dtype(dtype)
    nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
    name = f"{prefix}_{secrets.token_hex(6)}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
    _CREATED_HERE.add(seg._name)
    view = np.ndarray(shape, dtype=dt, buffer=seg.buf)
    if fill is not None:
        view[...] = fill
    return seg, view, ArrayRef(shm=seg.name, shape=tuple(shape),
                               dtype=dt.name)


def attach_array(ref: ArrayRef) -> Tuple[shared_memory.SharedMemory,
                                         np.ndarray]:
    """Attach to a client-owned segment without adopting ownership."""
    dt = np.dtype(ref.dtype)
    nbytes = int(np.prod(ref.shape, dtype=np.int64)) * dt.itemsize
    if nbytes > MAX_SEGMENT_BYTES:
        raise ProtocolError(f"operand {ref.shm} claims {nbytes} bytes "
                            f"(max {MAX_SEGMENT_BYTES})")
    if _supports_track():
        seg = shared_memory.SharedMemory(name=ref.shm, track=False)
    else:
        seg = shared_memory.SharedMemory(name=ref.shm)
        if seg._name not in _CREATED_HERE:
            try:  # undo the attach-side resource_tracker registration
                from multiprocessing import resource_tracker

                resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
    if seg.size < nbytes:
        seg.close()
        raise ProtocolError(
            f"operand {ref.shm}: segment holds {seg.size} bytes but the "
            f"descriptor claims shape {ref.shape} ({nbytes} bytes)")
    view = np.ndarray(ref.shape, dtype=dt, buffer=seg.buf)
    return seg, view


class SegmentSet:
    """Context manager owning a batch of client-side segments.

    Guarantees close+unlink of everything allocated through it, even when
    the request fails mid-flight.
    """

    def __init__(self, prefix: str = "rblas") -> None:
        self.prefix = prefix
        self._segments = []

    def add(self, shape: Tuple[int, ...], dtype: str = "float64",
            fill: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, ArrayRef]:
        seg, view, ref = create_array(shape, dtype=dtype, fill=fill,
                                      prefix=self.prefix)
        self._segments.append(seg)
        return view, ref

    def release(self) -> None:
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
            except OSError:
                pass
            try:
                seg.unlink()
            except (OSError, FileNotFoundError):
                pass
            _CREATED_HERE.discard(seg._name)

    def __enter__(self) -> "SegmentSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class AttachedSet:
    """Server-side batch of attached (never-owned) segments."""

    def __init__(self) -> None:
        self._segments = []

    def attach(self, ref: ArrayRef) -> np.ndarray:
        seg, view = attach_array(ref)
        self._segments.append(seg)
        return view

    def close(self) -> None:
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
            except OSError:
                pass

    def __enter__(self) -> "AttachedSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
