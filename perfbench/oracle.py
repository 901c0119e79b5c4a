"""Accuracy oracle: componentwise forward-error bounds (Higham, ch. 3).

Every benchmark call is checked against the OpenBLAS result on the same
inputs, outside its timed interval.  A result passes when each element
lies within the error both computations are allowed,

    |Ĉ - C_ref| <= 2 γ_t · magnitude,      γ_t = t·u / (1 - t·u),

where ``u = 2**-53`` is the unit roundoff, ``t`` the number of rounded
operations in the longest chain that produced the element, and
``magnitude`` the same expression evaluated on absolute values (for gemm
``|α||A||B| + |β||C|``).  The factor 2 covers both sides: each one is
within γ_t·magnitude of the exact result.  Triangular solve is checked
by its componentwise residual ``|L X̂ - αB| <= 2 γ_t (|L||X̂| + |α||B|)``,
which, unlike a forward error, does not depend on the conditioning of L.

Products that build a magnitude are evaluated in row blocks, so the
oracle's temporaries stay small next to the library's own buffers.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

#: unit roundoff of float64
U = float(np.finfo(np.float64).eps) / 2

#: rows per block when a magnitude needs a matrix product
ROW_BLOCK = 256


def gamma(t: int) -> float:
    """γ_t = t·u / (1 - t·u)."""
    return t * U / (1.0 - t * U)


def within(got, expected, magnitude, terms: int) -> bool:
    """Whether ``|got - expected| <= 2 γ_terms · magnitude`` everywhere.

    NaN in ``got`` fails the comparison, so it counts as wrong.
    """
    return bool(np.all(np.abs(np.asarray(got) - expected)
                       <= 2.0 * gamma(terms) * magnitude))


def _rows_within(got: np.ndarray, expected: np.ndarray,
                 magnitude_rows: Callable[[slice], np.ndarray],
                 terms: int, mask_rows: Optional[Callable] = None) -> bool:
    """:func:`within` evaluated one block of rows at a time."""
    if got.shape != expected.shape:
        return False
    for r0 in range(0, got.shape[0], ROW_BLOCK):
        rows = slice(r0, min(r0 + ROW_BLOCK, got.shape[0]))
        g, e, mag = got[rows], expected[rows], magnitude_rows(rows)
        if mask_rows is not None:
            keep = mask_rows(rows)
            g, e, mag = g[keep], e[keep], mag[keep]
        if not within(g, e, mag, terms):
            return False
    return True


def _plus_beta_c(mag: np.ndarray, c, beta: float, rows: slice) -> np.ndarray:
    if c is not None and beta != 0.0:
        mag += abs(beta) * np.abs(c[rows])
    return mag


def check_gemm(got, expected, a, b, c, alpha: float, beta: float) -> bool:
    """``C = αAB + βC``: bound 2γ_{k+2}(|α||A||B| + |β||C|)."""
    abs_b = np.abs(b)
    return _rows_within(
        np.asarray(got), expected,
        lambda r: _plus_beta_c(abs(alpha) * (np.abs(a[r]) @ abs_b),
                               c, beta, r),
        a.shape[1] + 2)


def check_gemv(got, expected, a, x, y, alpha: float, beta: float,
               trans: bool) -> bool:
    """``y = α op(A) x + βy``: bound 2γ_{n+2}(|α||op(A)||x| + |β||y|)."""
    op_a = a.T if trans else a
    mag = abs(alpha) * (np.abs(op_a) @ np.abs(x))
    if y is not None and beta != 0.0:
        mag += abs(beta) * np.abs(y)
    got = np.asarray(got)
    return got.shape == expected.shape and within(got, expected, mag,
                                                  x.shape[0] + 2)


def check_dot(got, expected, x, y) -> bool:
    """``xᵀy``: bound 2γ_n |x|ᵀ|y|."""
    return within(got, expected, np.abs(x) @ np.abs(y), x.shape[0])


def check_axpy(got, expected, alpha: float, x, y0) -> bool:
    """``y = αx + y``: bound 2γ_2(|α||x| + |y|)."""
    got = np.asarray(got)
    return got.shape == expected.shape and within(
        got, expected, abs(alpha) * np.abs(x) + np.abs(y0), 2)


def check_scal(got, expected, alpha: float, x0) -> bool:
    """``x = αx``: bound 2γ_1|α||x|."""
    got = np.asarray(got)
    return got.shape == expected.shape and within(
        got, expected, abs(alpha) * np.abs(x0), 1)


def _lower_only(got: np.ndarray, expected: np.ndarray, magnitude_rows,
                terms: int) -> bool:
    """Lower triangle within the bound; the strict upper triangle, which
    the routine must not touch, exactly equal to the reference's."""
    got = np.asarray(got)
    if got.shape != expected.shape:
        return False
    n = got.shape[1]
    cols = np.arange(n)
    if not np.array_equal(np.triu(got, 1), np.triu(expected, 1)):
        return False
    return _rows_within(
        got, expected, magnitude_rows, terms,
        mask_rows=lambda r: cols[None, :] <= np.arange(r.start, r.stop)[:, None])


def check_syrk(got, expected, a, c, alpha: float, beta: float) -> bool:
    """Lower triangle of ``αAAᵀ + βC``: bound 2γ_{k+2}(|α||A||A|ᵀ + |β||C|)."""
    abs_at = np.abs(a).T
    return _lower_only(
        got, expected,
        lambda r: _plus_beta_c(abs(alpha) * (np.abs(a[r]) @ abs_at),
                               c, beta, r),
        a.shape[1] + 2)


def check_syr2k(got, expected, a, b, c, alpha: float, beta: float) -> bool:
    """Lower triangle of ``α(ABᵀ + BAᵀ) + βC``: the two products form one
    2k-term chain, bound 2γ_{2k+2}(|α|(|A||B|ᵀ + |B||A|ᵀ) + |β||C|)."""
    abs_a, abs_b = np.abs(a), np.abs(b)
    return _lower_only(
        got, expected,
        lambda r: _plus_beta_c(
            abs(alpha) * (abs_a[r] @ abs_b.T + abs_b[r] @ abs_a.T),
            c, beta, r),
        2 * a.shape[1] + 2)


def check_symm(got, expected, a, b, c, alpha: float, beta: float) -> bool:
    """``α sym(A) B + βC`` with A's lower triangle:
    bound 2γ_{n+2}(|α||sym(A)||B| + |β||C|)."""
    abs_sym = np.abs(np.tril(a) + np.tril(a, -1).T)
    abs_b = np.abs(b)
    return _rows_within(
        np.asarray(got), expected,
        lambda r: _plus_beta_c(abs(alpha) * (abs_sym[r] @ abs_b),
                               c, beta, r),
        a.shape[0] + 2)


def check_trmm(got, expected, l, b, alpha: float) -> bool:
    """``α L B`` with L lower triangular: bound 2γ_{n+2}|α||L||B|."""
    abs_l, abs_b = np.abs(np.tril(l)), np.abs(b)
    return _rows_within(np.asarray(got), expected,
                        lambda r: abs(alpha) * (abs_l[r] @ abs_b),
                        l.shape[0] + 2)


def check_trsm(got, l, b, alpha: float) -> bool:
    """``X = α L⁻¹ B`` by its componentwise residual:
    ``|L X̂ - αB| <= 2γ_{n+2}(|L||X̂| + |α||B|)``."""
    got = np.asarray(got)
    if got.shape != b.shape:
        return False
    low = np.tril(l)
    abs_low, abs_x = np.abs(low), np.abs(got)
    for r0 in range(0, got.shape[0], ROW_BLOCK):
        r = slice(r0, min(r0 + ROW_BLOCK, got.shape[0]))
        residual = low[r] @ got - alpha * b[r]
        mag = abs_low[r] @ abs_x + abs(alpha) * np.abs(b[r])
        if not within(residual, 0.0, mag, l.shape[0] + 2):
            return False
    return True
