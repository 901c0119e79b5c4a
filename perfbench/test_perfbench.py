"""Tests of the benchmark itself: oracle, seeding, counts, trace hygiene.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import repro.blas.gemm  # noqa: E402
import repro.blas.packing  # noqa: E402


@pytest.fixture(scope="module")
def blas(tmp_path_factory):
    from repro.backend.cache import reset_cache
    from repro.blas.api import AugemBLAS

    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    reset_cache()
    yield AugemBLAS(threads=1, integrity="off")
    if saved is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = saved
    reset_cache()


def _first(workload: str, routine: str, **params):
    """The first call of ``routine`` in the workload's seed-7 list."""
    for call in workloads.build(workload, 7):
        if call.routine == routine and all(call.params.get(k) == v
                                           for k, v in params.items()):
            return call
    raise LookupError(routine)


def _run(blas, call):
    ops = call.make()
    got = np.array(call.augem(blas, ops), dtype=float)
    ref = call.openblas(call.make())
    return ops, got, ref


# -- oracle ------------------------------------------------------------------

@pytest.mark.parametrize("with_c", [False, True])
def test_oracle_gemm_flags_one_bad_element(blas, with_c):
    call = next(c for c in workloads.build("small-calls", 7)
                if c.routine == "dgemm" and min(c.dims) >= 8
                and bool(c.params["beta"]) == with_c)
    ops, got, ref = _run(blas, call)
    assert call.check(ops, got, ref)

    a, b, alpha = ops["a"], ops["b"], call.params["alpha"]
    i, j = np.unravel_index(np.argmax(np.abs(got)), got.shape)
    perturbed = got.copy()
    perturbed[i, j] *= 1.0 + 1e-7
    assert not call.check(ops, perturbed, ref)

    t = int(np.argmax(np.abs(a[i, :] * b[:, j])))
    dropped = got.copy()
    dropped[i, j] -= alpha * a[i, t] * b[t, j]
    assert not call.check(ops, dropped, ref)


def test_oracle_gemv_and_dot_flag_a_dropped_term(blas):
    call = _first("small-calls", "dgemv", trans=False)
    ops, got, ref = _run(blas, call)
    assert call.check(ops, got, ref)
    a, x, alpha = ops["a"], ops["x"], call.params["alpha"]
    t = int(np.argmax(np.abs(a[0] * x)))
    dropped = got.copy()
    dropped[0] -= alpha * a[0, t] * x[t]
    assert not call.check(ops, dropped, ref)

    call = _first("small-calls", "ddot")
    ops, got, ref = _run(blas, call)
    assert call.check(ops, got, ref)
    x, y = ops["x"], ops["y"]
    t = int(np.argmax(np.abs(x * y)))
    assert not call.check(ops, got - x[t] * y[t], ref)


@pytest.mark.parametrize("routine", ["daxpy", "dscal"])
def test_oracle_level1_flags_one_bad_element(blas, routine):
    call = _first("small-calls", routine)
    ops, got, ref = _run(blas, call)
    assert call.check(ops, got, ref)
    bad = got.copy()
    k = int(np.argmax(np.abs(bad)))
    bad[k] *= 1.0 + 1e-7
    assert not call.check(ops, bad, ref)


def test_oracle_level3_flags_one_bad_element(blas):
    # smallest draws keep this quick; the bounds are shape-independent
    def small(routine):
        return min((c for c in workloads.build("level3-mixed", 7)
                    if c.routine == routine), key=lambda c: c.flops)

    for routine in ("dsyrk", "dsyr2k", "dsymm", "dtrmm", "dtrsm"):
        call = small(routine)
        ops, got, ref = _run(blas, call)
        assert call.check(ops, got, ref), routine
        bad = got.copy()
        i = bad.shape[0] - 1  # last row: its lower triangle is full
        j = int(np.argmax(np.abs(bad[i])))
        bad[i, j] *= 1.0 + 1e-7
        assert not call.check(ops, bad, ref), routine

    # SYRK must leave C's strict upper triangle exactly as it was
    call = small("dsyrk")
    ops, got, ref = _run(blas, call)
    got[0, 1] += 1.0
    assert not call.check(ops, got, ref)


# -- seeding -----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_seed_fixes_the_draw(workload):
    first = [c.draw() for c in workloads.build(workload, 11)]
    again = [c.draw() for c in workloads.build(workload, 11)]
    other = [c.draw() for c in workloads.build(workload, 12)]
    assert first == again
    assert [d[1] for d in first] != [d[1] for d in other]


def test_draws_stay_in_range():
    for workload, (_, groups) in workloads.SPECS.items():
        calls = workloads.build(workload, 5)
        for routine, count, ranges, _ in groups:
            dims = [c.dims for c in calls if c.routine == routine]
            assert len(dims) == count
            for d in dims:
                assert all(lo <= v <= hi for v, (lo, hi) in zip(d, ranges))


# -- trace hygiene and exact counts --------------------------------------------

def test_untraced_names_are_the_originals():
    assert repro.blas.gemm.pack_a is repro.blas.packing.pack_a
    before = [(owner, name, vars(owner)[name])
              for _, owner, name, _ in layers.targets()]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert repro.blas.gemm.pack_a is not repro.blas.packing.pack_a
        assert all(vars(o)[n] is not f for o, n, f in before)
    finally:
        tracer.remove()
    assert all(vars(o)[n] is f for o, n, f in before)
    assert repro.blas.gemm.pack_a is repro.blas.packing.pack_a


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


EXACT = ("gemm.calls", "gemm.useful_flops", "kernel.calls",
         "kernel.padded_flops", "packing.bytes_packed",
         "integrity.tiles_checked")


def test_counts_repeat_exactly_for_a_seed():
    first = _traced("level3-mixed", 3)
    second = _traced("level3-mixed", 3)
    assert set(first) == set(layers.METRICS)
    for name in EXACT:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_guard_coercions_count_the_transposed_operands():
    # the guard copies exactly the column-major A operands, once per call
    transposed = sum(c.params.get("a_t", False)
                     for c in workloads.build("small-calls", 3))
    assert transposed == 64
    assert _traced("small-calls", 3)["guard.coercions"] == transposed


# -- the contract --------------------------------------------------------------

def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.SETTINGS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.METRICS


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".scratch", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
