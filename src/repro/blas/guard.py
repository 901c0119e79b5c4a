"""BLAS-style argument validation — the library's ``xerbla`` layer.

Reference BLAS funnels every bad argument through ``xerbla`` with the
routine name and parameter index; ctypes kernels are far less forgiving —
a strided view or an int array handed to generated assembly corrupts
memory instead of raising.  :class:`ArgGuard` sits between the public
``AugemBLAS`` entry points and the drivers so invalid input can never
reach assembly:

- **coercion**: array-likes are converted to C-contiguous float64 (the
  only layout the kernels accept); every copy/cast made on the way in is
  counted (``dispatch.guard_coercion``) so callers can see conversion
  overhead in a trace;
- **rejection**: wrong rank, mismatched shapes, non-numeric dtypes, and
  non-coercible *in-place* operands raise :class:`BlasArgumentError`
  with the routine and parameter named (``dispatch.guard_rejection``);
- **aliasing**: read operands that share memory with an in-place output
  are defensively copied, so ``daxpy(a, x, x)`` and ``dger`` with a row
  of the updated matrix behave like their reference semantics;
- **NaN/Inf policy**: ``"propagate"`` (default, IEEE semantics flow
  through) or ``"raise"`` (reject non-finite input up front).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..obs import incr

#: accepted ``nan_policy`` values
NAN_POLICIES = ("propagate", "raise")

_F64 = np.dtype(np.float64)


class BlasArgumentError(ValueError):
    """Invalid argument to a BLAS entry point (the ``xerbla`` analogue)."""

    def __init__(self, routine: str, param: str, message: str) -> None:
        self.routine = routine
        self.param = param
        super().__init__(f"{routine}: parameter '{param}': {message}")


@dataclass
class GuardStats:
    """Per-instance tallies (process-wide totals go to ``dispatch.*``)."""

    coercions: int = 0       # dtype/contiguity copies made on the way in
    rejections: int = 0      # BlasArgumentError raised
    alias_copies: int = 0    # defensive copies for aliased in-place outputs
    zero_dim_returns: int = 0  # calls short-circuited before any kernel


class ArgGuard:
    """Validates and coerces arguments for one :class:`AugemBLAS`."""

    def __init__(self, nan_policy: str = "propagate") -> None:
        if nan_policy not in NAN_POLICIES:
            raise ValueError(f"nan_policy must be one of {NAN_POLICIES}, "
                             f"got {nan_policy!r}")
        self.nan_policy = nan_policy
        self.stats = GuardStats()

    # -- outcomes ---------------------------------------------------------
    def reject(self, routine: str, param: str, message: str,
               value=None) -> None:
        """Raise :class:`BlasArgumentError`, naming the offending operand's
        dtype and shape when an array (or array-like) is in hand — the
        difference between "b: expected shape (4, 4)" and an error the
        caller can act on without a debugger."""
        self.stats.rejections += 1
        incr("dispatch.guard_rejection")
        if value is not None:
            described = value if isinstance(value, np.ndarray) else None
            if described is None:
                try:
                    described = np.asarray(value)
                except Exception:
                    described = None
            if described is not None and described.dtype != object:
                message = (f"{message} [offending operand: "
                           f"dtype={described.dtype}, "
                           f"shape={described.shape}]")
        raise BlasArgumentError(routine, param, message)

    def note_zero_dim(self) -> None:
        self.stats.zero_dim_returns += 1
        incr("dispatch.guard_zero_dim")

    # -- coercion ---------------------------------------------------------
    def _coerce(self, routine: str, param: str, value,
                ndim: int) -> np.ndarray:
        # fast path: an operand that is already kernel-ready needs no
        # conversion, so none of the checks below can fire on it
        if type(value) is np.ndarray and value.ndim == ndim \
                and value.dtype is _F64 and value.flags.c_contiguous:
            self._check_finite(routine, param, value)
            return value
        try:
            arr = np.asarray(value)
        except Exception:
            self.reject(routine, param, "not convertible to an array")
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
            self.reject(routine, param,
                        f"non-numeric dtype {arr.dtype}")
        if np.iscomplexobj(arr):
            self.reject(routine, param, "complex input is not supported "
                                        "(double-precision real BLAS)",
                        value=arr)
        if arr.ndim != ndim:
            self.reject(routine, param,
                        f"expected a {ndim}-D array, got {arr.ndim}-D "
                        f"shape {arr.shape}", value=arr)
        out = np.ascontiguousarray(arr, dtype=np.float64)
        if out is not arr:
            self.stats.coercions += 1
            incr("dispatch.guard_coercion")
        self._check_finite(routine, param, out)
        return out

    def matrix(self, routine: str, param: str, value,
               shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """A C-contiguous float64 2-D array (copied/cast as needed)."""
        arr = self._coerce(routine, param, value, ndim=2)
        if shape is not None and arr.shape != shape:
            self.reject(routine, param,
                        f"expected shape {shape}, got {arr.shape}",
                        value=arr)
        return arr

    def vector(self, routine: str, param: str, value,
               length: Optional[int] = None) -> np.ndarray:
        """A C-contiguous float64 1-D array (copied/cast as needed)."""
        arr = self._coerce(routine, param, value, ndim=1)
        if length is not None and arr.shape[0] != length:
            self.reject(routine, param,
                        f"expected length {length}, got {arr.shape[0]}",
                        value=arr)
        return arr

    def scalar(self, routine: str, param: str, value) -> float:
        try:
            out = float(value)
        except (TypeError, ValueError):
            self.reject(routine, param,
                        f"expected a real scalar, got {type(value).__name__}")
        if self.nan_policy == "raise" and not np.isfinite(out):
            self.reject(routine, param,
                        f"non-finite value {out!r} (nan_policy='raise')")
        return out

    # -- in-place outputs -------------------------------------------------
    def _inplace(self, routine: str, param: str, value,
                 ndim: int) -> np.ndarray:
        """An operand the routine mutates: must already be kernel-ready.

        Coercing would silently update a copy the caller never sees, so
        anything that is not a C-contiguous float64 array of the right
        rank is rejected rather than converted.
        """
        if not isinstance(value, np.ndarray):
            self.reject(routine, param,
                        "updated in place; pass a numpy array, not "
                        f"{type(value).__name__}")
        if value.ndim != ndim:
            self.reject(routine, param,
                        f"expected a {ndim}-D array, got {value.ndim}-D",
                        value=value)
        if value.dtype != np.float64 or not value.flags.c_contiguous:
            self.reject(routine, param,
                        "updated in place; must be C-contiguous float64 "
                        "(pass np.ascontiguousarray(..., dtype=np.float64) "
                        "yourself to keep the reference)", value=value)
        if not value.flags.writeable:
            self.reject(routine, param, "updated in place; array is "
                                        "read-only", value=value)
        self._check_finite(routine, param, value)
        return value

    def inplace_vector(self, routine: str, param: str, value,
                       length: Optional[int] = None) -> np.ndarray:
        arr = self._inplace(routine, param, value, ndim=1)
        if length is not None and arr.shape[0] != length:
            self.reject(routine, param,
                        f"expected length {length}, got {arr.shape[0]}",
                        value=arr)
        return arr

    def inplace_matrix(self, routine: str, param: str, value,
                       shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
        arr = self._inplace(routine, param, value, ndim=2)
        if shape is not None and arr.shape != shape:
            self.reject(routine, param,
                        f"expected shape {shape}, got {arr.shape}",
                        value=arr)
        return arr

    # -- aliasing ---------------------------------------------------------
    def unalias(self, routine: str, out: np.ndarray,
                read: np.ndarray) -> np.ndarray:
        """Defensive copy of ``read`` when it overlaps the in-place ``out``."""
        if read is not out and np.may_share_memory(read, out):
            self.stats.alias_copies += 1
            incr("dispatch.guard_alias_copy")
            return read.copy()
        return read

    # -- NaN/Inf policy ---------------------------------------------------
    def _check_finite(self, routine: str, param: str,
                      arr: np.ndarray) -> None:
        if self.nan_policy == "raise" and arr.size \
                and not np.all(np.isfinite(arr)):
            self.reject(routine, param,
                        "contains NaN/Inf (nan_policy='raise')", value=arr)
