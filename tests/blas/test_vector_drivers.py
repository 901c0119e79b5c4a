"""GEMV / AXPY / DOT / GER driver tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blas.gemv import make_gemv
from repro.blas.ger import make_ger
from repro.blas.level1 import make_axpy, make_dot

from tests.conftest import needs_cc

pytestmark = needs_cc


@pytest.fixture(scope="module")
def axpy():
    return make_axpy()


@pytest.fixture(scope="module")
def dot():
    return make_dot()


@pytest.fixture(scope="module")
def gemv():
    return make_gemv()


# -- AXPY ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 16, 17, 100, 1000])
def test_axpy_lengths(axpy, rng, n):
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    ref = y + 2.5 * x
    axpy(2.5, x, y)
    assert np.allclose(y, ref)


def test_axpy_negative_alpha(axpy, rng):
    x = rng.standard_normal(33)
    y = rng.standard_normal(33)
    ref = y - 1.25 * x
    axpy(-1.25, x, y)
    assert np.allclose(y, ref)


def test_axpy_mismatched_lengths(axpy):
    with pytest.raises(ValueError):
        axpy(1.0, np.zeros(4), np.zeros(5))


def test_axpy_requires_contiguous_y(axpy):
    y = np.zeros((4, 4))[:, 0]
    with pytest.raises(ValueError):
        axpy(1.0, np.zeros(4), y)


# -- DOT -----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 15, 16, 64, 999])
def test_dot_lengths(dot, rng, n):
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert np.isclose(dot(x, y), x @ y)


def test_dot_empty(dot):
    assert dot(np.zeros(0), np.zeros(0)) == 0.0


def test_dot_accepts_non_contiguous_via_copy(dot, rng):
    big = rng.standard_normal(64)
    x = big[::2]
    y = rng.standard_normal(32)
    assert np.isclose(dot(x, y), x @ y)


# -- GEMV ----------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(8, 8), (33, 17), (64, 128), (5, 1), (1, 5)])
def test_gemv_trans(gemv, rng, m, n):
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(m)
    assert np.allclose(gemv(a, x, trans=True), a.T @ x)


def test_gemv_no_trans(gemv, rng):
    a = rng.standard_normal((20, 12))
    x = rng.standard_normal(12)
    assert np.allclose(gemv(a, x, trans=False), a @ x)


def test_gemv_alpha_beta(gemv, rng):
    a = rng.standard_normal((16, 16))
    x = rng.standard_normal(16)
    y = rng.standard_normal(16)
    got = gemv(a, x, y, alpha=2.0, beta=0.5, trans=True)
    assert np.allclose(got, 2.0 * a.T @ x + 0.5 * y)


def test_gemv_length_mismatch(gemv):
    with pytest.raises(ValueError):
        gemv(np.zeros((4, 5)), np.zeros(9), trans=True)
    with pytest.raises(ValueError):  # y shorter than the output
        gemv(np.zeros((4, 5)), np.zeros(4), np.zeros(3), beta=1.0,
             trans=True)


@pytest.mark.parametrize("trans", [False, True])
def test_gemv_beta_zero_does_not_read_y(gemv, rng, trans):
    a = rng.standard_normal((19, 23))
    x = rng.standard_normal(19 if trans else 23)
    y = np.full(23 if trans else 19, np.nan)
    got = gemv(a, x, y, alpha=0.5, beta=0.0, trans=trans)
    assert np.allclose(got, 0.5 * ((a.T if trans else a) @ x))
    assert np.isnan(y).all()


# -- GER ------------------------------------------------------------------------

def test_ger_matches_outer(rng):
    ger = make_ger()
    a = np.ascontiguousarray(rng.standard_normal((13, 9)))
    a0 = a.copy()
    x = rng.standard_normal(13)
    y = rng.standard_normal(9)
    ger(1.75, x, y, a)
    assert np.allclose(a, a0 + 1.75 * np.outer(x, y))


def test_ger_zero_coefficient_rows_skipped(rng):
    ger = make_ger()
    a = np.zeros((3, 4))
    x = np.array([0.0, 1.0, 0.0])
    y = np.ones(4)
    ger(1.0, x, y, a)
    assert np.allclose(a[0], 0) and np.allclose(a[1], 1) and np.allclose(a[2], 0)


def test_ger_shape_validation(rng):
    ger = make_ger()
    with pytest.raises(ValueError):
        ger(1.0, np.zeros(3), np.zeros(4), np.zeros((4, 4)))


# -- property: drivers agree with numpy on random input ----------------------------

@given(n=st.integers(1, 200), seed=st.integers(0, 2**31), alpha=st.floats(
    min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_axpy_property(n, seed, alpha):
    axpy = make_axpy()
    r = np.random.default_rng(seed)
    x = r.standard_normal(n)
    y = r.standard_normal(n)
    ref = y + alpha * x
    axpy(alpha, x, y)
    assert np.allclose(y, ref)
