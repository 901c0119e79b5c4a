"""Native backend tests: toolchain, runners, baselines, timer."""

import ctypes

import numpy as np
import pytest

from repro.backend.baselines import baseline_native, baseline_o2
from repro.backend.compiler import (
    ToolchainError,
    assemble_kernel,
    build_shared,
    find_cc,
)
from repro.backend.runner import load_kernel
from repro.backend.timer import measure
from repro.core.framework import Augem
from repro.isa.arch import detect_host

from tests.conftest import needs_cc

pytestmark = needs_cc


def test_find_cc():
    assert find_cc()


def test_build_shared_compiles_and_loads():
    so = build_shared({"f.c": "long forty_two(void) { return 42; }"},
                      tag="t42")
    fn = so.symbol("forty_two")
    fn.restype = ctypes.c_long
    assert fn() == 42


def test_build_shared_cached_by_content():
    src = {"g.c": "long g(void) { return 7; }"}
    so1 = build_shared(src, tag="cache")
    so2 = build_shared(src, tag="cache")
    assert so1 is so2


def test_build_shared_reports_errors():
    with pytest.raises(ToolchainError) as exc:
        build_shared({"bad.c": "this is not C"}, tag="bad")
    assert "bad.c" in str(exc.value) or "error" in str(exc.value).lower()


def test_assemble_generated_kernel():
    gk = Augem(arch=detect_host()).generate_named("dot", name="t_dot_asm")
    so = assemble_kernel(gk.asm_text, tag="t_dot_asm")
    assert so.symbol("t_dot_asm")


def test_runner_signatures(rng):
    host = detect_host()
    aug = Augem(arch=host)
    k = load_kernel("dot", aug.generate_named("dot", name="t_dot_sig"))
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    assert np.isclose(k(32, x, y), x @ y)


# -- baselines ----------------------------------------------------------------

def test_naive_dgemm_matches_numpy(rng):
    lib = baseline_o2()
    a = rng.standard_normal((9, 7))
    b = rng.standard_normal((7, 5))
    c = np.zeros((9, 5))
    lib.naive_dgemm(a, b, c)
    assert np.allclose(c, a @ b)


def test_blocked_dgemm_matches_numpy(rng):
    lib = baseline_native()
    a = rng.standard_normal((70, 300))
    b = rng.standard_normal((300, 65))
    c = np.zeros((70, 65))
    lib.blocked_dgemm(a, b, c)
    assert np.allclose(c, a @ b)


def test_baseline_vector_routines(rng):
    lib = baseline_o2()
    x = rng.standard_normal(101)
    y = rng.standard_normal(101)
    y2 = y.copy()
    lib.daxpy(1.5, x, y2)
    assert np.allclose(y2, y + 1.5 * x)
    assert np.isclose(lib.ddot(x, y), x @ y)
    a = rng.standard_normal((11, 13))
    out = np.zeros(13)
    lib.dgemv_t(a, rng.standard_normal(11), out)  # smoke: no crash
    assert out.shape == (13,)


def test_triangular_diag_routines(rng):
    lib = baseline_o2()
    nb, ncols = 12, 7
    l = np.tril(rng.standard_normal((nb, nb))) + 3 * np.eye(nb)
    b = np.ascontiguousarray(rng.standard_normal((nb, ncols)))
    ref = l @ b
    work = b.copy()
    lib.trmm_diag(np.ascontiguousarray(l), work, ncols)
    assert np.allclose(work, ref)
    work2 = ref.copy()
    lib.trsm_diag(np.ascontiguousarray(l), work2, ncols)
    assert np.allclose(work2, b)


# -- timer ----------------------------------------------------------------------

def test_measure_returns_sane_values():
    calls = []
    m = measure(lambda: calls.append(1), batches=3, calls_per_batch=10)
    assert m.best > 0
    assert m.best <= m.median <= m.worst
    assert len(calls) >= 31  # warmup + 3 batches of 10


def test_measure_autosizes_batch():
    m = measure(lambda: None, batches=2, target_batch_seconds=0.001)
    assert m.calls_per_batch >= 1
    assert m.mflops(1e6) > 0


def test_measure_rejects_degenerate_parameters():
    for kwargs in ({"batches": 0}, {"batches": -3},
                   {"batches": 2, "calls_per_batch": 0},
                   {"batches": 2, "warmup": -1}):
        with pytest.raises(ValueError):
            measure(lambda: None, **kwargs)


def test_measure_runs_warmup_before_timing():
    calls = []
    measure(lambda: calls.append(1), batches=1, calls_per_batch=1, warmup=3)
    assert len(calls) == 4  # 3 warmup + 1 timed


def test_runner_rejects_wrong_dtype_and_strides(rng):
    from repro.backend.runner import _ptr

    with pytest.raises(TypeError):
        _ptr(np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError):
        _ptr(np.zeros((4, 4))[:, 0])  # strided view
    assert _ptr(np.zeros(4)) is not None


def test_runner_raw_addresses(rng):
    from repro.backend.runner import _ptr

    x = rng.standard_normal(40)
    assert _ptr(x) == x.ctypes.data
    assert _ptr(x[8:]) == x.ctypes.data + 8 * 8  # views keep their offset
    frozen = x.copy()
    frozen.flags.writeable = False  # no writable buffer: falls back
    assert _ptr(frozen) == frozen.ctypes.data
    assert isinstance(_ptr(np.zeros(0)), int)


def test_kernels_reject_wrong_dtype_and_strides(rng):
    aug = Augem(arch=detect_host())
    k = load_kernel("dot", aug.generate_named("dot", name="t_dot_ptr"))
    x = rng.standard_normal(32)
    with pytest.raises(TypeError, match="float64"):
        k(32, x.astype(np.float32), x)
    with pytest.raises(ValueError, match="C-contiguous"):
        k(16, x[::2], x[:16])
    frozen = x.copy()
    frozen.flags.writeable = False
    assert np.isclose(k(32, frozen, x), x @ x)
