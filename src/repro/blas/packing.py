"""Panel packing for the blocked GEMM driver (Goto's GEBP decomposition).

The generated micro-kernel (paper Fig. 12) indexes *packed* panels:

- ``A[l*Mc + i]`` — the A block transposed so each l-slice holds Mc
  contiguous elements (i fastest);
- ``B[j*Kc + l]`` — the "dup" layout: one contiguous Kc column per j;
- ``B[l*Nc + j]`` — the "shuf" layout: one contiguous Nc row per l.

All packers accept arbitrary (even non-contiguous) float64 2-D inputs and
zero-pad to the requested panel dimensions, so the driver can run the
remainder-free micro-kernel over every edge block.

Every packer takes an optional ``out`` — a flat float64 buffer of exactly
the panel's element count (typically lent by
:class:`~repro.blas.threading.PackBufferPool`) — and writes in place
without allocating; padding regions are re-zeroed explicitly, so a dirty
reused buffer is safe.  ``pack_a`` additionally folds ``alpha`` into the
panel (``np.multiply`` straight into the destination view), which is how
the driver applies ``alpha * A @ B`` without materializing a scaled copy
of the A block per tile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _panel(out: Optional[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) float64 view over ``out`` (or a fresh zero panel)."""
    if out is None:
        return np.zeros((rows, cols))
    if out.dtype != np.float64 or out.size != rows * cols:
        raise ValueError(
            f"out buffer has {out.size} x {out.dtype} elements; panel "
            f"needs {rows * cols} x float64")
    return out.reshape(rows, cols)


def pack_a(block: np.ndarray, mc: int, kc: int,
           out: Optional[np.ndarray] = None,
           alpha: float = 1.0) -> np.ndarray:
    """Pack an A block (rows x k) into ``A[l*mc + i]``, zero-padded,
    with ``alpha`` folded in."""
    rows, k = block.shape
    if rows > mc or k > kc:
        raise ValueError(f"block {block.shape} exceeds panel ({mc}, {kc})")
    panel = _panel(out, kc, mc)
    if out is not None:  # re-zero the padding (skipping empty slices)
        if k < kc:
            panel[k:, :] = 0.0
        if rows < mc:
            panel[:k, rows:] = 0.0
    if alpha == 1.0:
        panel[:k, :rows] = block.T
    else:
        np.multiply(block.T, alpha, out=panel[:k, :rows])
    return panel.ravel() if out is None else out


def pack_b_dup(block: np.ndarray, kc: int, nc: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pack a B block (k x cols) into ``B[j*kc + l]`` (column-per-j)."""
    k, cols = block.shape
    if k > kc or cols > nc:
        raise ValueError(f"block {block.shape} exceeds panel ({kc}, {nc})")
    panel = _panel(out, nc, kc)
    if out is not None:
        if cols < nc:
            panel[cols:, :] = 0.0
        if k < kc:
            panel[:cols, k:] = 0.0
    panel[:cols, :k] = block.T
    return panel.ravel() if out is None else out


def pack_b_shuf(block: np.ndarray, kc: int, nc: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pack a B block (k x cols) into ``B[l*nc + j]`` (row-per-l)."""
    k, cols = block.shape
    if k > kc or cols > nc:
        raise ValueError(f"block {block.shape} exceeds panel ({kc}, {nc})")
    panel = _panel(out, kc, nc)
    if out is not None:
        if k < kc:
            panel[k:, :] = 0.0
        if cols < nc:
            panel[:k, cols:] = 0.0
    panel[:k, :cols] = block
    return panel.ravel() if out is None else out


def unpack_a(packed: np.ndarray, mc: int, kc: int) -> np.ndarray:
    """Inverse of :func:`pack_a` (testing helper): returns (mc, kc)."""
    return packed.reshape(kc, mc).T.copy()


def unpack_b_dup(packed: np.ndarray, kc: int, nc: int) -> np.ndarray:
    """Inverse of :func:`pack_b_dup`: returns (kc, nc)."""
    return packed.reshape(nc, kc).T.copy()


def unpack_b_shuf(packed: np.ndarray, kc: int, nc: int) -> np.ndarray:
    """Inverse of :func:`pack_b_shuf`: returns (kc, nc)."""
    return packed.reshape(kc, nc).copy()
