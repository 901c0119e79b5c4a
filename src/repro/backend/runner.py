"""ctypes runners for the generated kernels.

Each runner wraps a compiled symbol with the argument signature of the
corresponding simple-C kernel and numpy-array marshalling.  These are the
*micro-kernel* entry points; the packing/blocking drivers in
:mod:`repro.blas` compose them into full BLAS routines.

Loading raises :class:`~repro.backend.compiler.ToolchainUnavailable` when
the host has no assembler; callers that can degrade (the tuner, test skip
markers) catch that subclass specifically.  *Executing* a loaded kernel
is only crash-safe inside the fault-isolated worker of
:mod:`repro.backend.sandbox` — a bad candidate run in-process takes the
interpreter down with it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.framework import GeneratedKernel
from .compiler import SharedObject, assemble_kernel

#: kernels take raw data addresses: ``c_void_p`` converts a Python int
#: for free, where ``data_as(POINTER(c_double))`` costs microseconds
_VP = ctypes.c_void_p
_F64 = np.dtype(np.float64)
_BYTE = ctypes.c_char


def _ptr(a: np.ndarray) -> int:
    # explicit checks, not asserts: handing a native kernel a pointer to
    # the wrong dtype or a strided view corrupts memory instead of
    # raising, and asserts vanish under ``python -O``.  ``is`` catches
    # the canonical float64 dtype; ``!=`` the equal-but-distinct ones.
    if a.dtype is not _F64 and a.dtype != _F64:
        raise TypeError(f"kernel buffers must be float64, got {a.dtype}")
    if not a.flags.c_contiguous:
        raise ValueError("kernel buffers must be C-contiguous "
                         "(pass a copy of the strided view)")
    try:
        # a ctypes view of the buffer yields its address several times
        # cheaper than building the ``a.ctypes`` helper object; it needs
        # a writable, non-empty buffer
        return ctypes.addressof(_BYTE.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


@dataclass
class NativeKernel:
    """A generated kernel loaded as native code."""

    generated: GeneratedKernel
    so: SharedObject
    fn: Callable

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "NativeKernel":
        so = assemble_kernel(generated.asm_text, tag=generated.name)
        try:
            fn = so.symbol(generated.name)
        except AttributeError:
            # a persisted cache entry that dlopens but lacks the symbol
            # (e.g. written by an older build): evict it and rebuild
            so = assemble_kernel(generated.asm_text, tag=generated.name,
                                 force=True)
            fn = so.symbol(generated.name)
        return cls(generated=generated, so=so, fn=fn)


class GemmKernel(NativeKernel):
    """``dgemm_kernel(Mc, Nc, Kc, A, B, C, LDC)`` on packed panels.

    A is packed Kc x Mc (``A[l*Mc+i]``); B packed per the kernel layout
    (``B[j*Kc+l]`` for the Vdup layout, ``B[l*Nc+j]`` for Shuf); C is a
    column-major Mc x Nc tile with leading dimension LDC.
    """

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "GemmKernel":
        self = super().load(generated)
        self.fn.restype = None
        self.fn.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_long,
                            _VP, _VP, _VP, ctypes.c_long]
        return self

    def __call__(self, mc: int, nc: int, kc: int, a: np.ndarray,
                 b: np.ndarray, c: np.ndarray, ldc: int) -> None:
        self.fn(mc, nc, kc, _ptr(a), _ptr(b), _ptr(c), ldc)


class GemvKernel(NativeKernel):
    """``dgemv_kernel(M, N, A, LDA, X, Y)``: y += A(:, :) @ x, column sweep."""

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "GemvKernel":
        self = super().load(generated)
        self.fn.restype = None
        self.fn.argtypes = [ctypes.c_long, ctypes.c_long, _VP,
                            ctypes.c_long, _VP, _VP]
        return self

    def __call__(self, m: int, n: int, a: np.ndarray, lda: int,
                 x: np.ndarray, y: np.ndarray) -> None:
        self.fn(m, n, _ptr(a), lda, _ptr(x), _ptr(y))


class AxpyKernel(NativeKernel):
    """``daxpy_kernel(N, alpha, X, Y)``: y += alpha * x."""

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "AxpyKernel":
        self = super().load(generated)
        self.fn.restype = None
        self.fn.argtypes = [ctypes.c_long, ctypes.c_double, _VP, _VP]
        return self

    def __call__(self, n: int, alpha: float, x: np.ndarray,
                 y: np.ndarray) -> None:
        self.fn(n, alpha, _ptr(x), _ptr(y))


class ScalKernel(NativeKernel):
    """``dscal_kernel(N, alpha, X)``: x *= alpha."""

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "ScalKernel":
        self = super().load(generated)
        self.fn.restype = None
        self.fn.argtypes = [ctypes.c_long, ctypes.c_double, _VP]
        return self

    def __call__(self, n: int, alpha: float, x: np.ndarray) -> None:
        self.fn(n, alpha, _ptr(x))


class DotKernel(NativeKernel):
    """``ddot_kernel(N, X, Y) -> double``."""

    @classmethod
    def load(cls, generated: GeneratedKernel) -> "DotKernel":
        self = super().load(generated)
        self.fn.restype = ctypes.c_double
        self.fn.argtypes = [ctypes.c_long, _VP, _VP]
        return self

    def __call__(self, n: int, x: np.ndarray, y: np.ndarray) -> float:
        return self.fn(n, _ptr(x), _ptr(y))


KERNEL_RUNNERS = {
    "gemm": GemmKernel,
    "gemm_shuf": GemmKernel,
    "gemv": GemvKernel,
    "gemv_n": GemvKernel,  # same (M, N, A, LDA, X, Y) signature
    "axpy": AxpyKernel,
    "dot": DotKernel,
    "scal": ScalKernel,
}


def load_kernel(kernel_family: str, generated: GeneratedKernel) -> NativeKernel:
    """Load a generated kernel with the right signature for its family."""
    return KERNEL_RUNNERS[kernel_family].load(generated)
