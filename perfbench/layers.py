"""Per-layer attribution by wrapping each layer's public entry points.

:class:`Tracer` replaces a fixed set of functions and methods of the
library with timing wrappers while it is installed, and restores the
originals, by identity, when it is removed.  A wrapper is installed
where the caller looks the name up: ``repro.blas.gemm`` imports
``pack_a`` by name, so the wrapper replaces ``repro.blas.gemm.pack_a``,
not ``repro.blas.packing.pack_a``.  Nothing under ``src/`` changes, and
the untraced benchmark runs the library exactly as shipped.

Each wrapper opens a span on a per-thread stack.  When it closes, its
duration minus the time of the spans nested in it on the same thread is
the layer's *self* time, so every traced second is attributed to
exactly one layer on its thread.  Worker threads of the threaded GEMM
keep their own stacks; their spans do not cover the caller's wait,
which stays in the ``threading.run`` span.  The facade methods are the
root spans: their self time is wall time no layer covers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.backend import runner
from repro.blas import api, gemm, gemv, guard, integrity, level1, level3
from repro.blas import threading as blas_threading
from repro.blas.dispatch import DispatchChain
from repro.core.framework import Augem

FACADE = "facade"

#: facade methods the workloads call (the root spans)
_FACADE_METHODS = ("dgemm", "dgemv", "ddot", "daxpy", "dscal", "dsymm",
                   "dsyrk", "dsyr2k", "dtrmm", "dtrsm")

_GUARD_METHODS = ("scalar", "matrix", "vector", "inplace_vector",
                  "inplace_matrix", "unalias", "reject", "note_zero_dim")


def _kernel_flops(args, result, dur) -> Dict[str, float]:
    # GemmKernel.__call__(self, mc, nc, kc, ...): the padded tile it computes
    return {"kernel.padded_flops": 2.0 * args[1] * args[2] * args[3]}


def _driver_flops(args, result, dur) -> Dict[str, float]:
    # GemmDriver.__call__(self, a, b, ...): the product the caller asked for
    (m, k), n = args[1].shape, args[2].shape[1]
    return {"gemm.useful_flops": 2.0 * m * n * k}


def _panel_bytes(args, result, dur) -> Dict[str, float]:
    # pack_a(block, mc, kc) / pack_b_*(block, kc, nc): the panel written
    return {"packing.bytes_packed": 8.0 * args[1] * args[2]}


def _pool_busy(args, result, dur) -> Dict[str, float]:
    # WorkerPool.run returns per-worker busy seconds; capacity counts
    # the caller, which works the batch too
    return {"threading.busy_s": sum(result.values()),
            "threading.capacity_s": (args[0].workers + 1) * dur}


def targets() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """Every wrapped name: ``(layer, owner, attribute, meter)``.

    ``meter(args, result, seconds)`` returns counter increments.
    """
    out = [(FACADE, api.AugemBLAS, m, None) for m in _FACADE_METHODS]
    out += [
        ("core", Augem, "generate_named", None),
        ("backend", runner, "assemble_kernel", None),
        ("dispatch.probe", DispatchChain, "verify_tier", None),
        ("dispatch.admit", DispatchChain, "admit", None),
        ("gemm", gemm.GemmDriver, "__call__", _driver_flops),
        ("packing.a", gemm, "pack_a", _panel_bytes),
        ("packing.b", gemm, "pack_b_dup", _panel_bytes),
        ("packing.b", gemm, "pack_b_shuf", _panel_bytes),
        ("kernel", runner.GemmKernel, "__call__", _kernel_flops),
        ("threading.pool", blas_threading.PackBufferPool, "acquire", None),
        ("threading.pool", blas_threading.PackBufferPool, "release", None),
        ("threading.run", blas_threading.WorkerPool, "run", _pool_busy),
        ("integrity.verify", gemm, "verify_gemm_tile", None),
        ("gemv.kernel", runner.GemvKernel, "__call__", None),
        ("gemv.driver", gemv.GemvDriver, "__call__", None),
    ]
    out += [("guard", guard.ArgGuard, m, None) for m in _GUARD_METHODS]
    out += [("level1.kernel", cls, "__call__", None)
            for cls in (runner.AxpyKernel, runner.DotKernel,
                        runner.ScalKernel)]
    out += [("level1.driver", cls, "__call__", None)
            for cls in (level1.AxpyDriver, level1.DotDriver,
                        level1.ScalDriver)]
    out += [("integrity.wrapper", cls, "__call__", None)
            for cls in (integrity.IntegrityGemvDriver,
                        integrity.IntegrityAxpyDriver,
                        integrity.IntegrityDotDriver,
                        integrity.IntegrityScalDriver)]
    out += [("level3", level3.Level3, m, None)
            for m in ("symm", "syrk", "syr2k", "trmm", "trsm")]
    return out


class Totals:
    """Span accumulators: self seconds and calls per layer, seconds of
    each (parent, child) nesting, and metered counts."""

    _FIELDS = ("self_s", "calls", "nested_s", "counts")

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.nested_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def merge(self, other: "Totals") -> "Totals":
        for name in self._FIELDS:
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] += value
        return self

    def clear(self) -> None:
        for name in self._FIELDS:
            getattr(self, name).clear()


class _Table(Totals):
    """One thread's accumulators and open-span stack."""

    def __init__(self) -> None:
        super().__init__()
        self.stack: List[list] = []


class Tracer:
    """Installs and removes the layer wrappers; owns their accumulators."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[_Table] = []
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []

    def _table(self) -> _Table:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = _Table()
            with self._lock:
                self._tables.append(table)
        return table

    def _wrap(self, layer: str, fn: Callable,
              meter: Optional[Callable]) -> Callable:
        clock = time.perf_counter
        local, new_table = self._local, self._table

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = getattr(local, "table", None) or new_table()
            stack = table.stack
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                table.self_s[layer] += dur - frame[1]
                table.calls[layer] += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    table.nested_s[(parent[0], layer)] += dur
            if meter is not None:
                for key, value in meter(args, result, dur).items():
                    table.counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for layer, owner, name, meter in targets():
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, meter))

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def reset(self) -> None:
        """Zero every accumulator (call between passes, never mid-span)."""
        with self._lock:
            for table in self._tables:
                table.clear()

    def totals(self) -> Totals:
        out = Totals()
        with self._lock:
            for table in self._tables:
                out.merge(table)
        return out


def facade_seconds(t: Totals) -> float:
    """Wall time inside facade calls: the root spans' full durations."""
    return t.self_s[FACADE] + sum(
        v for (parent, _), v in t.nested_s.items() if parent == FACADE)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: every per-layer metric: name -> (unit, better)
METRICS = {
    "core.generate_s": ("s", "lower"),
    "core.kernels_generated": ("count", "lower"),
    "backend.assemble_s": ("s", "lower"),
    "backend.cache_hit_ratio": ("ratio", "higher"),
    "dispatch.probe_s": ("s", "lower"),
    "dispatch.admit_s": ("s", "lower"),
    "dispatch.demotions": ("count", "lower"),
    "guard.self_us_per_call": ("us", "lower"),
    "guard.self_share": ("ratio", "lower"),
    "guard.coercions": ("count", "lower"),
    "gemm.driver_self_share": ("ratio", "lower"),
    "gemm.calls": ("count", "lower"),
    "gemm.useful_flops": ("flop", "higher"),
    "packing.pack_a_share": ("ratio", "lower"),
    "packing.pack_b_share": ("ratio", "lower"),
    "packing.bytes_packed": ("bytes_computed", "lower"),
    "kernel.share": ("ratio", "higher"),
    "kernel.gflops": ("GFLOP/s", "higher"),
    "kernel.calls": ("count", "lower"),
    "kernel.padded_flops": ("flop", "lower"),
    "kernel.useful_flop_ratio": ("ratio", "higher"),
    "threading.pool_share": ("ratio", "lower"),
    "threading.pool_hit_ratio": ("ratio", "higher"),
    "threading.worker_busy_frac": ("ratio", "higher"),
    "integrity.verify_share": ("ratio", "lower"),
    "integrity.tiles_checked": ("count", "lower"),
    "integrity.wrapper_share": ("ratio", "lower"),
    "level1.kernel_share": ("ratio", "higher"),
    "level1.driver_self_share": ("ratio", "lower"),
    "gemv.kernel_share": ("ratio", "higher"),
    "gemv.driver_self_share": ("ratio", "lower"),
    "level3.gemm_share": ("ratio", "higher"),
    "level3.glue_share": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


def setup_metrics(t: Totals, cache_delta: Dict[str, int],
                  demotions: int) -> Dict[str, float]:
    """Per-layer figures of one traced set-up (cold cache)."""
    lookups = cache_delta["hits"] + cache_delta["misses"]
    return {
        "core.generate_s": t.self_s["core"],
        "core.kernels_generated": t.calls["core"],
        "backend.assemble_s": t.self_s["backend"],
        "backend.cache_hit_ratio": _ratio(cache_delta["hits"], lookups),
        "dispatch.probe_s": t.self_s["dispatch.probe"],
        "dispatch.admit_s": t.self_s["dispatch.admit"],
        "dispatch.demotions": demotions,
    }


def run_metrics(t: Totals, counts: Totals, pool_delta: Dict[str, int],
                guard_coercions: int) -> Dict[str, float]:
    """Per-layer figures of the traced passes.

    ``t`` sums every traced pass (times and shares); ``counts`` is the
    first traced pass alone, whose counts repeat exactly for a seed.
    A share is a layer's self time over the wall time of the facade
    calls; on the threaded workload, worker-thread spans add to it.
    """
    wall = facade_seconds(t)
    share = {layer: _ratio(s, wall) for layer, s in t.self_s.items()}
    pool_lookups = pool_delta["hits"] + pool_delta["misses"]
    return {
        "guard.self_us_per_call": 1e6 * _ratio(t.self_s["guard"],
                                               t.calls[FACADE]),
        "guard.self_share": share.get("guard", 0.0),
        "guard.coercions": guard_coercions,
        "gemm.driver_self_share": share.get("gemm", 0.0),
        "gemm.calls": counts.calls["gemm"],
        "gemm.useful_flops": counts.counts["gemm.useful_flops"],
        "packing.pack_a_share": share.get("packing.a", 0.0),
        "packing.pack_b_share": share.get("packing.b", 0.0),
        "packing.bytes_packed": counts.counts["packing.bytes_packed"],
        "kernel.share": share.get("kernel", 0.0),
        "kernel.gflops": 1e-9 * _ratio(t.counts["kernel.padded_flops"],
                                       t.self_s["kernel"]),
        "kernel.calls": counts.calls["kernel"],
        "kernel.padded_flops": counts.counts["kernel.padded_flops"],
        "kernel.useful_flop_ratio": _ratio(
            counts.counts["gemm.useful_flops"],
            counts.counts["kernel.padded_flops"]),
        "threading.pool_share": share.get("threading.pool", 0.0),
        "threading.pool_hit_ratio": _ratio(pool_delta["hits"],
                                           pool_lookups),
        "threading.worker_busy_frac": _ratio(
            t.counts["threading.busy_s"], t.counts["threading.capacity_s"]),
        "integrity.verify_share": share.get("integrity.verify", 0.0),
        "integrity.tiles_checked": counts.calls["integrity.verify"],
        "integrity.wrapper_share": share.get("integrity.wrapper", 0.0),
        "level1.kernel_share": share.get("level1.kernel", 0.0),
        "level1.driver_self_share": share.get("level1.driver", 0.0),
        "gemv.kernel_share": share.get("gemv.kernel", 0.0),
        "gemv.driver_self_share": share.get("gemv.driver", 0.0),
        "level3.gemm_share": _ratio(t.nested_s[("level3", "gemm")], wall),
        "level3.glue_share": share.get("level3", 0.0),
        "trace.unattributed_share": share.get(FACADE, 0.0),
    }
