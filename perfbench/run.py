"""Facade-level benchmark of the AUGEM BLAS against OpenBLAS.

Usage, from the repository root::

    python3 perfbench/run.py --workload gemm-large --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: it times every call of
the workload's seeded call list on the public ``AugemBLAS`` facade and,
interleaved call by call on the same operands, on OpenBLAS; it checks
every result against the componentwise error bound of :mod:`oracle`;
and it times set-up, in CPU seconds, in fresh processes with empty
kernel caches.
``--trace 1`` measures the per-layer metrics: a traced set-up, then
untraced and traced passes over the same call list, alternating (see
:mod:`layers`).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the run (arch, dispatch tiers, BLAS builds, settings) and
print every metric with its unit.  See ``RECORD.md`` for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload -> (REPRO_THREADS, REPRO_INTEGRITY) it runs under
SETTINGS = {
    "gemm-large": ("1", "off"),
    "small-calls": ("1", "off"),
    "level3-mixed": ("2", "sample"),
}

#: fresh-process set-ups per --trace 0 run; setup_s is their median
SETUP_SAMPLES = 7

#: passes over the call list after which peak_rss_mb is read: by the
#: end of the second the allocator's heap has reached its plateau
RSS_PASSES = 2

#: the end-to-end metrics (BENCHMARK.json ``end_to_end``) and their units
UNITS = {"vs_openblas": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

#: raw figures printed beside the gated metrics
INFO_UNITS = {"gflops": "GFLOP/s", "calls_per_s": "1/s",
              "latency_p50_us": "us", "latency_p90_us": "us",
              "latency_p99_us": "us", "latency_samples": "count",
              "failed_frac": "ratio", "setup_wall_s": "s",
              "trace.passes": "count"}


def hermetic_env(workload: str, scratch: Path) -> dict:
    """The environment every run uses, whatever the caller's is."""
    threads, integrity = SETTINGS[workload]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "REPRO_CACHE_DIR": str(scratch / "cache"),
        "REPRO_THREADS": threads,
        "REPRO_INTEGRITY": integrity,
        "REPRO_FORCE_ARCH": "auto",
        "REPRO_FAULT_INJECT": "",
        "REPRO_TRACE": "off",
        "TMPDIR": str(scratch / "tmp"),
    })
    return env


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import the library from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


# -- set-up --------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU seconds of this process and of its waited-for children (the
    assembler and the ISA probes run as subprocesses)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup_child(workload: str) -> None:
    """Time construction through the first call of every routine, in
    CPU seconds (and, for the record, wall seconds)."""
    import workloads
    from repro.blas.api import AugemBLAS

    cpu0, t0 = cpu_seconds(), time.perf_counter()
    blas = AugemBLAS()
    workloads.first_calls(blas, workloads.routines(workload))
    wall = time.perf_counter() - t0
    print(json.dumps({"setup_s": cpu_seconds() - cpu0, "wall_s": wall,
                      "top": blas.chain.top.name, "tiers": tiers(blas)}))


def setup_samples(args, scratch: Path) -> list:
    """Set-up times of fresh processes, each with an empty kernel cache."""
    out = []
    for i in range(SETUP_SAMPLES):
        child = scratch / f"setup-{i}"
        (child / "tmp").mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "1",
             "--trace", "0", "--setup-child"],
            env=hermetic_env(args.workload, child), cwd=str(ROOT),
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def tiers(blas) -> dict:
    return {name: info.tier for name, info in blas.dispatch_report().items()}


# -- one call ------------------------------------------------------------------

class Outcome:
    """What the calls of one phase did: counts, and for each timed call
    its list index, facade seconds and OpenBLAS seconds (measured back
    to back on the same operands).  Compact arrays, so that the record
    itself does not show in ``peak_rss_mb``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.index = array("l")
        self.t_augem = array("d")
        self.t_openblas = array("d")


def best_times(index, seconds) -> dict:
    """Each list entry's fastest time over the passes, by entry."""
    best = {}
    for i, t in zip(index, seconds):
        best[i] = min(t, best.get(i, t))
    return best


def execute(blas, call, top: str, out: Outcome, index=None,
            augem_first: bool = True) -> None:
    """Run ``call`` on both libraries, check it, and record the times
    under ``index`` (``None``: untimed).

    A call that raises, breaks the error bound, or was served below the
    top dispatch tier counts as failed and its time is not recorded.
    """
    clock = time.perf_counter
    ops_augem, ops_ref = call.make(), call.make()
    out.attempted += 1
    t_ref = 0.0
    try:
        if not augem_first:
            t0 = clock()
            ref = call.openblas(ops_ref)
            t_ref = clock() - t0
        t0 = clock()
        got = call.augem(blas, ops_augem)
        t_augem = clock() - t0
    except Exception as exc:  # noqa: BLE001 - a failed call is counted
        print(f"perfbench: {call.routine}{call.dims} raised "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        out.failed += 1
        return
    if augem_first:
        t0 = clock()
        ref = call.openblas(ops_ref)
        t_ref = clock() - t0
    info = blas.dispatch_report().get(call.family)
    if info is None or info.tier != top or not call.check(ops_augem, got,
                                                          ref):
        out.failed += 1
        return
    if index is not None:
        out.index.append(index)
        out.t_augem.append(t_augem)
        out.t_openblas.append(t_ref)


def run_pass(blas, calls, top: str, out: Outcome, passes: int) -> None:
    """One timed pass over the list; the side that runs first alternates
    call by call and, through ``passes``, pass by pass."""
    for i, call in enumerate(calls):
        execute(blas, call, top, out, index=i,
                augem_first=(i + passes) % 2 == 0)


# -- --trace 0 -----------------------------------------------------------------

def timed_run(args, scratch: Path, calls, stamp: dict) -> tuple:
    import numpy as np

    import workloads
    from repro.blas.api import AugemBLAS

    setups = setup_samples(args, scratch)
    # the timed process reuses the last set-up's (now warm) kernel cache
    os.environ["REPRO_CACHE_DIR"] = str(scratch / f"setup-{len(setups) - 1}"
                                        / "cache")
    blas = AugemBLAS()
    workloads.first_calls(blas, workloads.routines(args.workload))
    top = blas.chain.top.name
    setup_ok = all(set(s["tiers"].values()) == {s["top"]} for s in setups)
    stamp.update(arch=blas.arch.name, top_tier=top, tiers=tiers(blas),
                 setup_tiers_at_top=setup_ok)

    out = Outcome()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < RSS_PASSES or time.perf_counter() < deadline:
        run_pass(blas, calls, top, out, passes)
        passes += 1
        if passes == RSS_PASSES:
            # after a fixed amount of work, the same for every commit at
            # a seed, not after the passes a faster library fits in
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not out.index:
        fail("no call completed correctly")

    # each side's fastest time per list entry over the passes: the
    # pairing cancels the host's speed, the minimum its interference
    best_augem = best_times(out.index, out.t_augem)
    best_ref = best_times(out.index, out.t_openblas)
    by_routine = {}
    for i in best_augem:
        by_routine.setdefault(calls[i].routine, []).append(
            best_ref[i] / best_augem[i])
    t_augem = np.array(out.t_augem)
    flops = sum(calls[i].flops for i in out.index)
    latency_us = 1e6 * t_augem
    metrics = {
        # each routine weighs the same: the routines' ratios lie far
        # apart, and one median over all entries would fall in the gap
        # between two of them, where a small shift moves it a lot
        "vs_openblas": statistics.geometric_mean(
            statistics.median(r) for r in by_routine.values()),
        # CPU seconds, so that waiting for a core on a loaded host does
        # not read as a change of the library
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
    }
    # as measured, but not steady enough on a shared host to gate on:
    # they move with the host's speed, which the paired ratio cancels
    extra = {
        "gflops": 1e-9 * flops / t_augem.sum(),
        "calls_per_s": len(t_augem) / t_augem.sum(),
        "latency_p50_us": float(np.percentile(latency_us, 50)),
        "latency_p90_us": float(np.percentile(latency_us, 90)),
        "latency_p99_us": float(np.percentile(latency_us, 99)),
        "latency_samples": len(latency_us),
        "failed_frac": out.failed / out.attempted,
        "setup_wall_s": statistics.median(s["wall_s"] for s in setups),
        "passes": passes,
        "setup_samples_s": [s["setup_s"] for s in setups],
    }
    return metrics, extra, out, setup_ok


# -- --trace 1 -----------------------------------------------------------------

def traced_run(args, scratch: Path, calls, stamp: dict) -> tuple:
    import layers
    import workloads
    from repro.backend.cache import get_cache
    from repro.blas.api import AugemBLAS

    tracer = layers.Tracer()
    cache = get_cache().stats
    before = (cache.hits, cache.misses)
    tracer.install()
    try:
        blas = AugemBLAS()
        workloads.first_calls(blas, workloads.routines(args.workload))
    finally:
        tracer.remove()
    setup = tracer.totals()
    tracer.reset()
    top = blas.chain.top.name
    stamp.update(arch=blas.arch.name, top_tier=top, tiers=tiers(blas))
    metrics = layers.setup_metrics(
        setup, {"hits": cache.hits - before[0],
                "misses": cache.misses - before[1]},
        sum(len(info.attempts) for info in blas.dispatch_report().values()))

    def pool_stats():
        if "gemm" not in blas.dispatch_report():
            return {"hits": 0, "misses": 0}
        return blas.gemm_driver.pack_pool.stats()

    # untraced and traced passes alternate; only the first traced pass
    # gives counts (they repeat exactly), every traced pass gives times
    untraced, traced = Outcome(), Outcome()
    totals, first = layers.Totals(), None
    pool_delta = {"hits": 0, "misses": 0}
    coercions = None
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while first is None or time.perf_counter() < deadline:
        run_pass(blas, calls, top, untraced, passes)
        pool0, coerce0 = pool_stats(), blas.guard.stats.coercions
        tracer.install()
        try:
            run_pass(blas, calls, top, traced, passes)
        finally:
            tracer.remove()
        pool1 = pool_stats()
        for key in pool_delta:
            pool_delta[key] += pool1[key] - pool0[key]
        if coercions is None:
            coercions = blas.guard.stats.coercions - coerce0
        pass_totals = tracer.totals()
        tracer.reset()
        totals.merge(pass_totals)
        first = first or pass_totals
        passes += 1

    metrics.update(layers.run_metrics(totals, first, pool_delta, coercions))
    metrics["trace.overhead_frac"] = (
        sum(best_times(traced.index, traced.t_augem).values())
        / sum(best_times(untraced.index, untraced.t_augem).values()) - 1.0)
    out = Outcome()
    out.attempted = untraced.attempted + traced.attempted
    out.failed = untraced.failed + traced.failed
    return metrics, {"trace.passes": passes}, out, True


# -- entry point ---------------------------------------------------------------

def parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(SETTINGS) + ["all"],
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def blas_builds() -> dict:
    import numpy as np
    import scipy

    def openblas(config) -> str:
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name')} {blas.get('version')}"

    return {"numpy": f"{np.__version__} / "
                     f"{openblas(np.show_config(mode='dicts'))}",
            "scipy": f"{scipy.__version__} / "
                     f"{openblas(scipy.show_config(mode='dicts'))}"}


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints their
    metric tables and returns 0 only if every run was correct."""
    status = 0
    for workload in SETTINGS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if line.startswith("  ")))
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            print(proc.stderr[-2000:], file=sys.stderr)
            status = 1
    return status


def remove_scratch(scratch: Path) -> None:
    shutil.rmtree(scratch, ignore_errors=True)
    with contextlib.suppress(OSError):
        scratch.parent.rmdir()  # only once no other run uses it


def main(argv=None) -> int:
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_child:
        import_library()
        setup_child(args.workload)
        return 0
    scratch = HERE / ".scratch" / (f"{args.workload}-{args.seed}-"
                                   f"{args.trace}-{os.getpid()}")
    env = hermetic_env(args.workload, scratch)
    # before numpy is imported: OpenBLAS reads its thread count at load
    os.environ.clear()
    os.environ.update(env)
    # registered before the library's exit handlers, so it runs after
    # them: the kernel cache writes its stats into the scratch at exit
    atexit.register(remove_scratch, scratch)
    import_library()
    (scratch / "tmp").mkdir(parents=True)
    import workloads

    calls = workloads.build(args.workload, args.seed)
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "calls_in_list": len(calls),
             "settings": {k: env[k] for k in (
                 "REPRO_THREADS", "REPRO_INTEGRITY", "REPRO_FORCE_ARCH",
                 "REPRO_FAULT_INJECT", "REPRO_TRACE",
                 "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
             "blas_builds": blas_builds()}
    run = traced_run if args.trace else timed_run
    metrics, extra, out, setup_ok = run(args, scratch, calls, stamp)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    units = UNITS
    if args.trace:
        import layers

        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    for name, value in metrics.items():
        print(f"  {args.workload:13s} {name:28s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        if name in INFO_UNITS:
            print(f"  {args.workload:13s} {name:28s} {value:14.6g} "
                  f"{INFO_UNITS[name]} (not gated)")
    print("extra " + json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": out.failed == 0 and setup_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
