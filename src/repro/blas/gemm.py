"""Blocked DGEMM driver — Goto's GEBP algorithm around the generated
micro-kernel (paper §4.1: "Our GEMM kernel is based on a general
block-partitioned algorithm originally developed by Goto").

The driver partitions C into Mc x Nc macro-tiles and K into Kc slices
(Kc = 256 in the paper's evaluation), shrinking Mc/Nc when needed so
there are at least as many tiles as compute threads.  Per tile it packs
the A block (alpha folded in — no scaled copy is ever materialized) and
the B panel into the kernel's layouts through a reusable
:class:`~repro.blas.threading.PackBufferPool`, runs the remainder-free
micro-kernel, and writes the finished tile into the result.  A call
whose grid is one tile (every small call) takes that path directly;
larger grids share each B panel between the tiles of its column and
run on one thread or across the persistent
:class:`~repro.blas.threading.WorkerPool` (BLIS-style jc/ic loop
parallelism; the ctypes kernel call releases the GIL).

Parallel execution is **bit-identical** to single-threaded execution at
any thread count: each (jc, ic) macro-tile is owned by exactly one task,
its kc-slices run sequentially inside that task, every C element is
accumulated in strictly ascending k order by the kernel, and tiles land
in disjoint regions of the result — so no floating-point operation
ever reorders, whatever the scheduling.

``alpha`` scales the packed A block; ``beta`` pre-scales C — the kernel
itself computes pure ``C += A*B`` exactly as in paper Fig. 12.  The
thread count comes from the constructor, a per-call override, or
``$REPRO_THREADS`` (see :func:`~repro.blas.threading.resolve_threads`).
"""

from __future__ import annotations

import threading as _threading
import time as _time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..backend.faults import (InjectedWorkerFault, corrupt_tile,
                              take_fault)
from ..backend.runner import GemmKernel
from ..core.framework import GeneratedKernel
from ..obs import event, incr, span
from ..obs import trace as _trace
from .integrity import STATS as _ISTATS
from .integrity import (IntegrityChecker, IntegrityReport,
                        resolve_integrity, verify_gemm_tile)
from .packing import pack_a, pack_b_dup, pack_b_shuf
from .threading import PackBufferPool, get_pool, resolve_threads


def kernel_multiples(generated: GeneratedKernel) -> tuple:
    """(mu, nu, ku): trip-count multiples the generated kernel requires."""
    mu = nu = ku = 1
    for var, factor in generated.config.unroll_jam:
        if var == "i":
            mu = factor
        elif var == "j":
            nu = factor
    for var, factor in generated.config.unroll:
        if var == "l":
            ku = factor
        elif var == "i":
            mu = max(mu, factor)
        elif var == "j":
            nu = max(nu, factor)
    return mu, nu, ku


def _round_up(x: int, mult: int) -> int:
    return ((x + mult - 1) // mult) * mult


@dataclass
class BlockSizes:
    """Cache-blocking parameters (paper Table 5 guides the defaults;
    empirically re-tuned for the Python-driver overhead profile)."""

    mc: int = 128
    kc: int = 256
    nc: int = 512


def split_for_threads(m: int, n: int, mc: int, nc: int, mu: int, nu: int,
                      threads: int) -> Tuple[int, int]:
    """Shrink (mc, nc) until the (jc, ic) grid has >= ``threads`` tiles.

    Halves the larger blocking dimension first (keeping every size a
    multiple of the kernel's mu/nu), and stops at (mu, nu) — a problem
    smaller than the thread count simply runs on fewer tiles.
    """

    def ntiles(mc_: int, nc_: int) -> int:
        return -(-m // mc_) * -(-n // nc_)

    while ntiles(mc, nc) < threads:
        if nc > nu and (nc >= mc or mc <= mu):
            nc = max(nu, _round_up(nc // 2, nu))
        elif mc > mu:
            mc = max(mu, _round_up(mc // 2, mu))
        else:
            break
    return mc, nc


class _PanelSlot:
    """Once-per-(jc, kc) B panel: first claimant packs, the rest wait."""

    __slots__ = ("event", "buf", "error")

    def __init__(self) -> None:
        self.event = _threading.Event()
        self.buf: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None


class _Panels:
    """The B panels of a multi-tile call: each (jc, kc) panel is packed
    once, by the first tile to need it, and read by the rest."""

    def __init__(self, pool: PackBufferPool, pack_b, b: np.ndarray,
                 tiles) -> None:
        self.pool, self.pack_b, self.b = pool, pack_b, b
        self.slots: Dict[Tuple[int, int], _PanelSlot] = {}
        self.lock = _threading.Lock()
        self.remaining = Counter(tile[0] for tile in tiles)  # per column

    def get(self, j0: int, jn: int, jn_pad: int, l0: int, ln: int,
            ln_pad: int) -> np.ndarray:
        """The shared read-only B panel for (j0, l0); packed once."""
        key = (j0, l0)
        with self.lock:
            slot = self.slots.get(key)
            owner = slot is None
            if owner:
                slot = self.slots[key] = _PanelSlot()
        if not owner:
            slot.event.wait()
            if slot.error is not None:
                raise RuntimeError(
                    f"B panel ({j0}, {l0}) packing failed: "
                    f"{slot.error}") from slot.error
            return slot.buf
        try:
            # held by the slot even if packing fails: release() frees it
            slot.buf = self.pool.acquire(ln_pad * jn_pad)
            self.pack_b(self.b[l0:l0 + ln, j0:j0 + jn], ln_pad, jn_pad,
                        out=slot.buf)
        except BaseException as exc:  # noqa: BLE001 - rethrown
            slot.error = exc
            raise
        finally:
            slot.event.set()
        return slot.buf

    def release(self, j0: Optional[int] = None) -> None:
        """Return drained panels to the pool: column ``j0``'s once its
        last tile is done, or every panel still held (``j0=None``, the
        failure path)."""
        bufs = []
        with self.lock:
            if j0 is not None:
                self.remaining[j0] -= 1
                if self.remaining[j0]:
                    return
            for (pj, _), slot in self.slots.items():
                if (j0 is None or pj == j0) and slot.buf is not None:
                    bufs.append(slot.buf)
                    slot.buf = None
        for buf in bufs:
            self.pool.release(buf)


class _Job(NamedTuple):
    """One call's operands and settings, shared by all of its tiles."""

    a: np.ndarray
    b: np.ndarray
    alpha: float
    kc: int
    dst: np.ndarray       # the result's transpose: tiles land at [j, i]
    accumulate: bool      # add tiles into dst (C given) or assign them
    check: bool           # ABFT-verify every tile of this call
    report: Optional[IntegrityReport]


def _note(report: Optional[IntegrityReport], field: str, n: int = 1) -> None:
    _ISTATS.add(field, n)
    incr(f"integrity.{field}", n)
    # the per-call report counts tiles_checked, not raw checks
    if report is not None and field != "checks":
        report.note(field, n)


class GemmDriver:
    """Reusable DGEMM entry point around one loaded micro-kernel.

    One driver instance is safe to call from many threads concurrently:
    the packing-buffer pool is lock-protected, worker pools are shared
    process-wide, and every call works on private tile buffers.
    """

    #: the serve worker keys per-request ABFT on this marker
    supports_integrity = True

    def __init__(self, kernel: GemmKernel, layout: str = "dup",
                 blocks: Optional[BlockSizes] = None,
                 threads: Optional[int] = None,
                 pack_pool: Optional[PackBufferPool] = None,
                 integrity=None) -> None:
        if layout not in ("dup", "shuf"):
            raise ValueError("layout must be 'dup' or 'shuf'")
        self.kernel = kernel
        self.layout = layout
        self.family = "gemm" if layout == "dup" else "gemm_shuf"
        self.blocks = blocks or BlockSizes()
        self.threads = resolve_threads(threads)
        self.pack_pool = pack_pool or PackBufferPool()
        self.mu, self.nu, self.ku = kernel_multiples(kernel.generated)
        if isinstance(integrity, IntegrityChecker):
            self.integrity = integrity
        else:
            self.integrity = IntegrityChecker(mode=integrity)

    def __call__(self, a: np.ndarray, b: np.ndarray,
                 c: Optional[np.ndarray] = None,
                 alpha: float = 1.0, beta: float = 0.0,
                 threads: Optional[int] = None,
                 integrity: Optional[str] = None,
                 integrity_report: Optional[IntegrityReport] = None
                 ) -> np.ndarray:
        """``C = alpha * A @ B + beta * C`` for row-major 2-D float64 arrays.

        ``integrity`` overrides the driver's ABFT mode for this call
        (the serve per-request flag); ``integrity_report`` collects the
        per-call verification record.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        m, k = a.shape
        n = b.shape[1]
        out: Optional[np.ndarray] = None
        if c is not None:
            if np.shape(c) != (m, n):
                raise ValueError(f"C has shape {np.shape(c)}, "
                                 f"expected {(m, n)}")
            if beta == 0.0:  # BLAS: C is not read when beta is zero
                out = np.zeros((m, n))
            else:
                out = np.array(c, dtype=np.float64)
                if beta != 1.0:
                    out *= beta
        report = integrity_report
        check = self.integrity.decide(integrity)
        if report is not None:
            report.mode = self.integrity.mode if integrity is None \
                else resolve_integrity(integrity)[0]
            report.checked = report.checked or check
        if alpha == 0.0 or k == 0:
            return out if out is not None else np.zeros((m, n))

        nthreads = self.threads if threads is None \
            else resolve_threads(threads)
        bs = self.blocks
        mc = max(_round_up(min(bs.mc, m), self.mu), self.mu)
        nc = max(_round_up(min(bs.nc, n), self.nu), self.nu)
        kc = max(_round_up(min(bs.kc, k), self.ku), self.ku)
        if nthreads > 1:
            mc, nc = split_for_threads(m, n, mc, nc, self.mu, self.nu,
                                       nthreads)

        # tiles land in disjoint [j, i] slices of the result's transpose;
        # without C, of an unzeroed workspace they are assigned into (the
        # kernel accumulates from +0.0 in round-to-nearest and never
        # yields -0.0, so that is bit-identical to adding into zeros)
        dst = np.empty((n, m)) if out is None else out.T
        job = _Job(a, b, alpha, kc, dst, out is not None, check, report)
        if m <= mc and n <= nc:  # one macro-tile: no B panel to share
            self._run_tile(0, (0, n, _round_up(n, self.nu),
                               0, m, _round_up(m, self.mu)), job)
        else:
            self._run_tiles(job, mc, nc, nthreads)
        return dst.T if out is None else out

    # -- tile execution ----------------------------------------------------

    def _compute_tile(self, job, tile, corrupt: bool,
                      panels: Optional[_Panels] = None) -> np.ndarray:
        """Pack and multiply one macro-tile into a pooled buffer.

        The caller owns (and must release) the returned buffer.  B comes
        from the call's shared ``panels``, or is packed privately: on
        the single-tile path, and on the ABFT retry, which must not
        reuse a possibly-corrupt shared panel.
        """
        a, b, kc = job.a, job.b, job.kc
        j0, jn, jn_pad, i0, im, im_pad = tile
        pool, k = self.pack_pool, a.shape[1]
        pack_b = pack_b_dup if self.layout == "dup" else pack_b_shuf
        c_buf = pool.acquire(im_pad * jn_pad)
        try:
            c_buf.fill(0.0)
            for l0 in range(0, k, kc):
                ln = min(kc, k - l0)
                ln_pad = _round_up(ln, self.ku)
                if panels is not None:
                    b_buf = panels.get(j0, jn, jn_pad, l0, ln, ln_pad)
                else:
                    b_buf = pool.acquire(ln_pad * jn_pad)
                a_buf = pool.acquire(im_pad * ln_pad)
                try:
                    if panels is None:
                        pack_b(b[l0:l0 + ln, j0:j0 + jn], ln_pad, jn_pad,
                               out=b_buf)
                    pack_a(a[i0:i0 + im, l0:l0 + ln], im_pad, ln_pad,
                           out=a_buf, alpha=job.alpha)
                    self.kernel(im_pad, jn_pad, ln_pad,
                                a_buf, b_buf, c_buf, im_pad)
                finally:
                    pool.release(a_buf)
                    if panels is None:
                        pool.release(b_buf)
            if corrupt:
                corrupt_tile(c_buf)
            return c_buf
        except BaseException:
            pool.release(c_buf)
            raise

    def _verified_tile(self, c_buf: np.ndarray, index: int, tile,
                       job) -> np.ndarray:
        """The verified (jn, im) tile to write into the result.

        Clean tiles return the view into ``c_buf`` (written before the
        caller releases it); the mismatch ladder returns a private copy
        safe to read after any pooled buffer goes back.
        """
        a, b, alpha, report = job.a, job.b, job.alpha, job.report
        j0, jn, jn_pad, i0, im, im_pad = tile
        a_sub = a[i0:i0 + im, :]
        b_sub = b[:, j0:j0 + jn]
        view = c_buf.reshape(jn_pad, im_pad)[:jn, :im]
        _note(report, "checks")
        if report is not None:
            report.note("tiles_checked")
        if verify_gemm_tile(view, a_sub, b_sub, alpha):
            return view
        worker = _threading.current_thread().name
        _note(report, "mismatches")
        event("integrity.mismatch", family=self.family, tile=index,
              j0=j0, i0=i0, worker=worker)
        # rung 1: retry once on freshly zeroed pooled buffers with
        # privately packed panels (heals transient bit-flips and
        # dirty-scratch races; the fault plan is re-consulted so a
        # persistent `corrupt` spec corrupts the retry too)
        _note(report, "retries")
        refault = take_fault("thread", tag=self.family, index=index)
        buf2 = self._compute_tile(job, tile, refault == "corrupt")
        try:
            view2 = buf2.reshape(jn_pad, im_pad)[:jn, :im]
            if verify_gemm_tile(view2, a_sub, b_sub, alpha):
                event("integrity.retry_ok", family=self.family, tile=index,
                      j0=j0, i0=i0)
                return np.array(view2)
        finally:
            self.pack_pool.release(buf2)
        # rung 2: reference recompute — the caller always receives
        # correct bits, whatever the kernel did
        _note(report, "reference_recomputes")
        ref_tile = np.ascontiguousarray((alpha * (a_sub @ b_sub)).T)
        # rung 3: strike the kernel; quarantine + demote at the limit
        verdict = self.integrity.record_corruption(
            self.family, self.kernel,
            detail=f"tile ({j0},{i0}) mismatched twice on {worker}")
        if report is not None and verdict.get("quarantined"):
            report.quarantine(str(verdict.get("body_hash")))
        return ref_tile

    def _run_tile(self, index: int, tile, job,
                  panels: Optional[_Panels] = None) -> None:
        """Compute, verify if the call is checked, and write one tile."""
        fault = take_fault("thread", tag=self.family, index=index)
        if fault == "worker_die":
            raise InjectedWorkerFault(
                f"injected worker_die at {self.family} tile #{index}")
        j0, jn, jn_pad, i0, im, im_pad = tile
        c_buf = self._compute_tile(job, tile, fault == "corrupt", panels)
        try:
            if job.check:
                t0 = _time.perf_counter_ns()
                view = self._verified_tile(c_buf, index, tile, job)
                dt = _time.perf_counter_ns() - t0
                _ISTATS.add("overhead_ns", dt)
                if job.report is not None:
                    job.report.note("overhead_ns", dt)
            else:
                view = c_buf.reshape(jn_pad, im_pad)[:jn, :im]
            # disjoint slice per tile: concurrent writes never overlap
            if job.accumulate:
                job.dst[j0:j0 + jn, i0:i0 + im] += view
            else:
                job.dst[j0:j0 + jn, i0:i0 + im] = view
        finally:
            self.pack_pool.release(c_buf)
        if panels is not None:
            panels.release(j0)

    def _run_tiles(self, job, mc: int, nc: int, nthreads: int) -> None:
        """The multi-tile path: B panels shared across (jc, ic) tasks."""
        (m, k), n = job.a.shape, job.b.shape[1]
        tiles = [(j0, min(nc, n - j0), _round_up(min(nc, n - j0), self.nu),
                  i0, min(mc, m - i0), _round_up(min(mc, m - i0), self.mu))
                 for j0 in range(0, n, nc) for i0 in range(0, m, mc)]
        nthreads = min(nthreads, len(tiles))
        pack_b = pack_b_dup if self.layout == "dup" else pack_b_shuf
        panels = _Panels(self.pack_pool, pack_b, job.b, tiles)
        tasks = [partial(self._run_tile, idx, tile, job, panels)
                 for idx, tile in enumerate(tiles)]
        try:
            if nthreads > 1:
                with span("gemm.parallel", layout=self.layout,
                          threads=nthreads, tiles=len(tiles), k=k) as sp:
                    busy = get_pool(nthreads).run(tasks)
                    if _trace.enabled():
                        sp.set(busy_s=round(sum(busy.values()), 6))
                        incr("gemm.parallel.calls")
                        incr("gemm.parallel.tasks", len(tiles))
                        incr("gemm.parallel.worker_busy",
                             sum(busy.values()))
                        for worker, seconds in sorted(busy.items()):
                            event("gemm.parallel.worker", worker=worker,
                                  busy_s=round(seconds, 6))
            else:
                for task in tasks:
                    task()
        finally:
            panels.release()


def make_gemm(arch=None, config=None, strategy: str = "auto",
              layout: str = "dup", blocks: Optional[BlockSizes] = None,
              schedule: bool = True, loader=None,
              threads: Optional[int] = None,
              integrity=None) -> GemmDriver:
    """Generate, assemble and wrap a DGEMM for the given (or host) arch.

    ``loader`` replaces :func:`~repro.backend.runner.load_kernel` — the
    dispatch layer passes a quarantine-aware, fault-instrumented loader.
    ``threads`` pins the driver's thread count (default:
    ``$REPRO_THREADS``, else 1); ``integrity`` the ABFT mode or a shared
    :class:`~repro.blas.integrity.IntegrityChecker` (default:
    ``$REPRO_INTEGRITY``, else off).
    """
    from ..backend.runner import load_kernel
    from ..core.framework import Augem

    load = loader or load_kernel
    aug = Augem(arch=arch, schedule=schedule)
    kernel_name = "gemm" if layout == "dup" else "gemm_shuf"
    gk = aug.generate_named(kernel_name, config=config, strategy=strategy)
    native = load(kernel_name, gk)
    return GemmDriver(native, layout=layout, blocks=blocks, threads=threads,
                      integrity=integrity)
