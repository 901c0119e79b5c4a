"""Blocked GEMM driver tests (native execution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.faults import (FaultPlan, InjectedWorkerFault,
                                  clear_fault_plan, install_fault_plan)
from repro.blas.gemm import BlockSizes, GemmDriver, kernel_multiples, make_gemm
from repro.blas.integrity import (IntegrityReport, emulated_gemm_driver,
                                  reset_integrity_state)
from repro.transforms.pipeline import OptimizationConfig

from tests.conftest import needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def gemm():
    return make_gemm()


def test_kernel_multiples_derived_from_config(gemm):
    mu, nu, ku = kernel_multiples(gemm.kernel.generated)
    assert mu >= 1 and nu >= 1 and ku >= 1
    cfg = gemm.kernel.generated.config
    assert ("i", mu) in cfg.unroll_jam


def test_square_matches_numpy(gemm, rng):
    a = rng.standard_normal((96, 96))
    b = rng.standard_normal((96, 96))
    assert np.allclose(gemm(a, b), a @ b)


@pytest.mark.parametrize("m,k,n", [
    (1, 1, 1), (2, 3, 4), (7, 11, 13), (64, 256, 64),
    (65, 257, 63), (100, 1, 100), (1, 100, 1), (33, 500, 29),
])
def test_arbitrary_shapes(gemm, rng, m, k, n):
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    assert np.allclose(gemm(a, b), a @ b)


def test_alpha_beta(gemm, rng):
    a = rng.standard_normal((20, 30))
    b = rng.standard_normal((30, 10))
    c = rng.standard_normal((20, 10))
    got = gemm(a, b, c, alpha=2.5, beta=-0.5)
    assert np.allclose(got, 2.5 * (a @ b) - 0.5 * c)


def test_beta_one_accumulates(gemm, rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    c = rng.standard_normal((8, 8))
    got = gemm(a, b, c, beta=1.0)
    assert np.allclose(got, a @ b + c)


def test_alpha_zero_short_circuits(gemm, rng):
    a = rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8))
    c = rng.standard_normal((8, 8))
    assert np.allclose(gemm(a, b, c, alpha=0.0, beta=2.0), 2.0 * c)


def test_k_zero(gemm, rng):
    a = np.zeros((4, 0))
    b = np.zeros((0, 5))
    assert np.allclose(gemm(a, b), np.zeros((4, 5)))


def test_input_matrices_not_mutated(gemm, rng):
    a = rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16))
    a0, b0 = a.copy(), b.copy()
    gemm(a, b, alpha=3.0)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_c_argument_not_mutated(gemm, rng):
    c = rng.standard_normal((8, 8))
    c0 = c.copy()
    gemm(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
         c=c, beta=1.0)
    assert np.array_equal(c, c0)  # driver works on a copy


def test_shape_mismatch_raises(gemm, rng):
    with pytest.raises(ValueError):
        gemm(np.zeros((3, 4)), np.zeros((5, 6)))
    with pytest.raises(ValueError):
        gemm(np.zeros((3, 4)), np.zeros((4, 6)), c=np.zeros((2, 2)))


def test_custom_block_sizes(rng):
    gemm_small = make_gemm(blocks=BlockSizes(mc=16, kc=32, nc=32))
    a = rng.standard_normal((50, 70))
    b = rng.standard_normal((70, 40))
    assert np.allclose(gemm_small(a, b), a @ b)


def test_shuf_layout_driver(rng):
    gemm_shuf = make_gemm(layout="shuf")
    a = rng.standard_normal((40, 60))
    b = rng.standard_normal((60, 30))
    assert np.allclose(gemm_shuf(a, b), a @ b)


def test_fortran_ordered_inputs(gemm, rng):
    a = np.asfortranarray(rng.standard_normal((24, 32)))
    b = np.asfortranarray(rng.standard_normal((32, 16)))
    assert np.allclose(gemm(a, b), a @ b)


@given(m=st.integers(1, 40), k=st.integers(1, 40), n=st.integers(1, 40),
       seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_property_random_shapes(m, k, n, seed):
    gemm = make_gemm()  # cached shared object: cheap after first call
    r = np.random.default_rng(seed)
    a = r.standard_normal((m, k))
    b = r.standard_normal((k, n))
    assert np.allclose(gemm(a, b), a @ b)


# -- single-macro-tile path ----------------------------------------------------

def _forbid_multi_tile(driver):
    """Make ``driver`` fail loudly if a call leaves the single-tile path."""
    def multi(*args, **kwargs):
        raise AssertionError("took the multi-tile path")
    driver._run_tiles = multi
    return driver


@pytest.mark.parametrize("m,n,k", [(1, 1, 1), (13, 7, 5), (25, 9, 31),
                                   (40, 30, 17), (64, 64, 64)])
@pytest.mark.parametrize("alpha,beta,with_c", [
    (1.0, 0.0, False), (2.5, 0.0, False), (-0.75, 0.0, True),
    (1.3, 1.0, True), (0.6, -0.7, True)])
def test_single_tile_bit_identical_to_many_tiles(gemm, rng, m, n, k, alpha,
                                                 beta, with_c):
    # same kc (so the same k slicing); the many-tile driver cuts the
    # product into mu x nu macro-tiles that share B panels
    single = _forbid_multi_tile(GemmDriver(gemm.kernel))
    many = GemmDriver(gemm.kernel, blocks=BlockSizes(mc=gemm.mu, nc=gemm.nu,
                                                     kc=256))
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n)) if with_c else None
    got = single(a, b, c, alpha=alpha, beta=beta)
    want = many(a, b, c, alpha=alpha, beta=beta)
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()
    ref = alpha * (a @ b) + (beta * c if with_c else 0.0)
    assert np.allclose(got, ref)


def test_unzeroed_workspace_never_holds_negative_zero(gemm):
    # -1 * 0 products are -0.0, but the kernel accumulates them onto a
    # +0.0 tile, so assigning tiles into an unzeroed workspace gives the
    # same bits as adding them into zeros
    got = gemm(-np.ones((5, 3)), np.zeros((3, 6)), alpha=-1.0)
    assert not np.signbit(got).any()


def test_beta_zero_does_not_read_c(gemm, rng):
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((4, 5))
    c = np.full((6, 5), np.nan)
    got = gemm(a, b, c, beta=0.0)
    assert np.allclose(got, a @ b)
    assert np.isnan(c).all()  # and the caller's C is untouched


class _FailingKernel:
    def __init__(self, generated):
        self.generated = generated

    def __call__(self, *args):
        raise RuntimeError("kernel blew up")


def test_single_tile_exception_returns_every_pool_buffer(gemm, rng):
    driver = _forbid_multi_tile(GemmDriver(_FailingKernel(
        gemm.kernel.generated)))
    with pytest.raises(RuntimeError, match="blew up"):
        driver(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    assert driver.pack_pool.outstanding == 0
    assert driver.pack_pool.allocations == 3  # separate C, B and A buffers


@pytest.fixture
def fault_plan():
    reset_integrity_state()
    yield lambda text: install_fault_plan(FaultPlan.parse(text))
    clear_fault_plan()
    reset_integrity_state()


def _emulated_single_tile(integrity):
    return _forbid_multi_tile(emulated_gemm_driver(
        integrity=integrity, blocks=BlockSizes(mc=64, kc=64, nc=64)))


def test_single_tile_worker_die_fault_fires(fault_plan, rng):
    fault_plan("worker_die@#0")
    driver = _emulated_single_tile("off")
    with pytest.raises(InjectedWorkerFault):
        driver(rng.standard_normal((6, 5)), rng.standard_normal((5, 7)))
    assert driver.pack_pool.outstanding == 0


def test_single_tile_corrupt_fault_fires(fault_plan, rng):
    fault_plan("corrupt@#0")
    driver = _emulated_single_tile("off")
    a = rng.standard_normal((6, 5))
    b = rng.standard_normal((5, 7))
    assert not np.allclose(driver(a, b), a @ b)


def test_single_tile_full_integrity_catches_corrupt(fault_plan, rng):
    fault_plan("corrupt@#0:1")
    driver = _emulated_single_tile("full")
    a = rng.standard_normal((6, 5))
    b = rng.standard_normal((5, 7))
    report = IntegrityReport()
    got = driver(a, b, integrity_report=report)
    assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)
    assert (report.tiles_checked, report.mismatches, report.retries,
            report.reference_recomputes) == (1, 1, 1, 0)
    assert driver.pack_pool.outstanding == 0
