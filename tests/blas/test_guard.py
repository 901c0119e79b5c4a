"""Argument-guard tests: the xerbla layer and the hardened facade's use
of it.  Facade-level tests pin the chain to the reference tier so they
run (and validate the full entry-point paths) without a toolchain."""

import numpy as np
import pytest

from repro.blas.api import AugemBLAS
from repro.blas.dispatch import reset_dispatch_state
from repro.blas.guard import ArgGuard, BlasArgumentError
from repro.blas.reference import ref_gemm, ref_gemv
from repro.isa.arch import FORCE_ARCH_ENV, reset_host_cache


# -- ArgGuard in isolation --------------------------------------------------

def test_bad_nan_policy_rejected_at_construction():
    with pytest.raises(ValueError, match="nan_policy"):
        ArgGuard(nan_policy="ignore")


def test_reject_carries_routine_and_param():
    g = ArgGuard()
    with pytest.raises(BlasArgumentError) as exc:
        g.matrix("dgemm", "a", np.zeros((2, 2, 2)))
    assert exc.value.routine == "dgemm"
    assert exc.value.param == "a"
    assert "dgemm: parameter 'a'" in str(exc.value)
    assert g.stats.rejections == 1


def test_matrix_rejections():
    g = ArgGuard()
    with pytest.raises(BlasArgumentError, match="3-D"):
        g.matrix("dgemm", "a", np.zeros((2, 2, 2)))
    with pytest.raises(BlasArgumentError, match="expected shape"):
        g.matrix("dgemm", "c", np.zeros((2, 3)), shape=(3, 2))
    with pytest.raises(BlasArgumentError, match="non-numeric"):
        g.matrix("dgemm", "a", np.array([["x", "y"]], dtype=object))
    with pytest.raises(BlasArgumentError, match="complex"):
        g.matrix("dgemm", "a", np.zeros((2, 2), dtype=complex))
    with pytest.raises(BlasArgumentError, match="not convertible"):
        g.matrix("dgemm", "a", [[1.0, 2.0], [3.0]])


def test_vector_length_check():
    g = ArgGuard()
    with pytest.raises(BlasArgumentError, match="expected length 4"):
        g.vector("daxpy", "x", np.zeros(3), length=4)


def test_scalar_rejects_non_scalars():
    g = ArgGuard()
    with pytest.raises(BlasArgumentError, match="real scalar"):
        g.scalar("dgemm", "alpha", np.zeros(3))
    assert g.scalar("dgemm", "alpha", 2) == 2.0


def test_coercions_are_counted():
    g = ArgGuard()
    ok = np.zeros((3, 3))
    assert g.matrix("dgemm", "a", ok) is ok  # no copy, no count
    assert g.stats.coercions == 0
    g.matrix("dgemm", "a", np.zeros((3, 3), dtype=np.int64))
    g.matrix("dgemm", "a", np.asfortranarray(np.ones((3, 2))))
    assert g.stats.coercions == 2


def test_kernel_ready_fast_path_keeps_outcomes():
    g = ArgGuard()
    ok = np.zeros((3, 3))
    vec = np.zeros(4)
    assert g.matrix("dgemm", "a", ok) is ok
    assert g.vector("ddot", "x", vec) is vec
    # everything else still takes the converting path, counted as before
    g.matrix("dgemm", "a", np.ones((3, 2)).T)
    g.matrix("dgemm", "a", np.ones((3, 3), dtype=np.int32))
    g.vector("ddot", "x", np.arange(4))
    g.vector("ddot", "x", np.zeros(8)[::2])
    assert g.stats.coercions == 4
    with pytest.raises(BlasArgumentError, match="2-D"):
        g.matrix("dgemm", "a", vec)  # kernel-ready but the wrong rank
    strict = ArgGuard(nan_policy="raise")
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(BlasArgumentError, match="NaN/Inf"):
        strict.matrix("dgemm", "a", bad)
    with pytest.raises(BlasArgumentError, match="NaN/Inf"):
        strict.vector("ddot", "x", np.array([0.0, np.nan]))
    with pytest.raises(BlasArgumentError, match="NaN/Inf"):
        strict.matrix("dgemm", "a", bad.T)  # converting path, same check
    assert strict.stats.coercions == 1


def test_inplace_rejects_anything_not_kernel_ready():
    g = ArgGuard()
    with pytest.raises(BlasArgumentError, match="numpy array"):
        g.inplace_vector("daxpy", "y", [1.0, 2.0])
    with pytest.raises(BlasArgumentError, match="C-contiguous float64"):
        g.inplace_vector("daxpy", "y", np.zeros(4, dtype=np.float32))
    with pytest.raises(BlasArgumentError, match="C-contiguous float64"):
        g.inplace_vector("daxpy", "y", np.zeros(8)[::2])
    locked = np.zeros(4)
    locked.flags.writeable = False
    with pytest.raises(BlasArgumentError, match="read-only"):
        g.inplace_vector("daxpy", "y", locked)
    with pytest.raises(BlasArgumentError, match="2-D"):
        g.inplace_matrix("dger", "a", np.zeros(4))
    assert g.stats.coercions == 0  # in-place operands are never copied


def test_unalias_copies_overlapping_reads():
    g = ArgGuard()
    a = np.arange(16.0).reshape(4, 4)
    row = a[1]
    copied = g.unalias("dger", out=a, read=row)
    assert copied is not row and np.array_equal(copied, row)
    assert g.stats.alias_copies == 1
    disjoint = np.zeros(4)
    assert g.unalias("dger", out=a, read=disjoint) is disjoint
    # identical object: elementwise routines are self-alias safe
    assert g.unalias("daxpy", out=row, read=row) is row
    assert g.stats.alias_copies == 1


def test_nan_policy_raise_rejects_nonfinite():
    g = ArgGuard(nan_policy="raise")
    with pytest.raises(BlasArgumentError, match="NaN/Inf"):
        g.matrix("dgemm", "a", np.array([[1.0, np.nan]]))
    with pytest.raises(BlasArgumentError, match="non-finite"):
        g.scalar("dgemm", "alpha", np.inf)
    # default policy propagates
    propagating = ArgGuard()
    arr = np.array([np.inf, np.nan])
    assert propagating.vector("daxpy", "x", arr) is arr


# -- through the hardened facade (reference tier: no toolchain needed) ------

@pytest.fixture
def ref_blas(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    reset_dispatch_state()
    yield AugemBLAS()
    reset_host_cache()
    reset_dispatch_state()


def test_facade_rejects_bad_arguments(ref_blas):
    with pytest.raises(BlasArgumentError, match="inner dimensions"):
        ref_blas.dgemm(np.zeros((2, 3)), np.zeros((4, 2)))
    with pytest.raises(BlasArgumentError, match="daxpy"):
        ref_blas.daxpy(1.0, np.zeros(4), [0.0] * 4)
    with pytest.raises(BlasArgumentError, match="must be square"):
        ref_blas.dtrsm(np.zeros((3, 2)), np.zeros((3, 2)))
    assert ref_blas.guard.stats.rejections == 3


def test_facade_zero_dim_calls_short_circuit(ref_blas):
    c = np.arange(6.0).reshape(2, 3)
    out = ref_blas.dgemm(np.zeros((2, 0)), np.zeros((0, 3)), c, beta=2.0)
    assert np.array_equal(out, 2.0 * c)  # k == 0 is still beta*C
    assert ref_blas.dgemm(np.zeros((0, 4)), np.zeros((4, 3))).shape == (0, 3)
    assert ref_blas.ddot(np.zeros(0), np.zeros(0)) == 0.0
    y = np.zeros(0)
    assert ref_blas.daxpy(2.0, np.zeros(0), y) is y
    assert ref_blas.guard.stats.zero_dim_returns == 4


def test_facade_self_aliased_axpy(ref_blas):
    x = np.arange(1.0, 9.0)
    got = ref_blas.daxpy(2.0, x, x)
    assert np.allclose(got, 3.0 * np.arange(1.0, 9.0))


def test_facade_dger_with_row_of_output(ref_blas):
    a = np.arange(9.0).reshape(3, 3).copy()
    x = a[1]  # aliases the updated matrix
    y = np.array([1.0, 2.0, 3.0])
    expected = a + 0.5 * np.outer(a[1].copy(), y)
    ref_blas.dger(0.5, x, y, a)
    assert np.allclose(a, expected)
    assert ref_blas.guard.stats.alias_copies == 1


def test_facade_coerces_noncontiguous_inputs(ref_blas):
    rng = np.random.default_rng(7)
    a = np.asfortranarray(rng.standard_normal((6, 5)))
    b = rng.standard_normal((10, 4))[::2]  # strided view
    assert np.allclose(ref_blas.dgemm(a, b), ref_gemm(a, b))
    x = rng.standard_normal(10)[::2]
    assert np.allclose(ref_blas.dgemv(a, x), ref_gemv(a, x))
    assert ref_blas.guard.stats.coercions >= 2


def test_facade_nan_policy_raise(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    reset_dispatch_state()
    try:
        blas = AugemBLAS(nan_policy="raise")
        a = np.ones((3, 3))
        a[1, 1] = np.nan
        with pytest.raises(BlasArgumentError, match="nan_policy"):
            blas.dgemm(a, np.ones((3, 3)))
    finally:
        reset_host_cache()
        reset_dispatch_state()
