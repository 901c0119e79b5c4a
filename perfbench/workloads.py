"""Seeded call lists for the benchmark workloads.

A workload is a list of BLAS calls drawn from ``--seed``.  The benchmark
runs whole passes over the list, so every drawn shape is sampled equally
often.  Each call is run on the :class:`~repro.blas.api.AugemBLAS`
facade and on OpenBLAS (through ``scipy.linalg.blas``) with the same
operands, and checked by :mod:`oracle`.

Shapes lie on a Latin hypercube (:func:`draw_shapes`): each dimension's
range is cut into as many strata as the routine has calls, the design
that combines strata into shapes is fixed, and the seed draws the point
inside each stratum.  Two seeds therefore draw different shapes with the
same mix of call sizes, which keeps a run's median and tail latency
comparable across seeds.  Uniform draws alone would let the size mix,
and with it every percentile, move by more than a regression bound.

Operands are views into one seeded pool of normal deviates, at random
element offsets (so most are not 64-byte aligned); operands a routine
updates in place are fresh copies for each call.

The scipy wrappers take Fortran-order arrays, so the OpenBLAS side runs
the transposed problem on transposed views (``Cᵀ = BᵀAᵀ`` and so on),
which passes every row-major operand without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import blas as fblas

import oracle

#: dispatch_report() key of the routine serving each facade method
FAMILY = {
    "dgemm": "gemm", "dsymm": "gemm", "dsyrk": "gemm", "dsyr2k": "gemm",
    "dtrmm": "gemm", "dtrsm": "gemm", "dgemv": "gemv", "ddot": "dot",
    "daxpy": "axpy", "dscal": "scal",
}


@dataclass
class Call:
    """One drawn BLAS call.

    ``dims`` and ``params`` are the draw; ``make`` builds fresh operands
    for one execution; ``augem``/``openblas`` run them; ``check`` decides
    correctness of the facade's result against the OpenBLAS result.
    """

    routine: str
    dims: Tuple[int, ...]
    params: Dict[str, object]
    flops: float
    make: Callable[[], dict]
    augem: Callable
    openblas: Callable
    check: Callable

    @property
    def family(self) -> str:
        return FAMILY[self.routine]

    def draw(self) -> tuple:
        """The call's full seeded description (tests compare these)."""
        return (self.routine, self.dims, tuple(sorted(self.params.items())))


class Pool:
    """Seeded normal deviates handed out as views at random offsets."""

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self.data = rng.standard_normal(size)
        self.rng = rng

    def offset(self, count: int) -> int:
        return int(self.rng.integers(0, self.data.size - count + 1))

    def view(self, offset: Optional[int], shape) -> Optional[np.ndarray]:
        """The operand at ``offset``; None for an operand not passed."""
        if offset is None:
            return None
        count = int(np.prod(shape))
        return self.data[offset:offset + count].reshape(shape)


def draw_shapes(rng: np.random.Generator, count: int,
                ranges: List[Tuple[int, int]],
                design: int) -> List[Tuple[int, ...]]:
    """``count`` shapes on a Latin hypercube over ``ranges`` (inclusive).

    Each range is cut into ``count`` equal strata.  Which strata shape
    ``i`` combines is a fixed design (``design`` keys it), the same for
    every seed; the seed draws the point inside each stratum.
    """
    cols = []
    for d, (lo, hi) in enumerate(ranges):
        strata = np.random.default_rng([design, d]).permutation(count)
        u = (strata + rng.random(count)) / count
        cols.append(lo + np.floor(u * (hi - lo + 1)).astype(int))
    return [tuple(int(v) for v in dims) for dims in zip(*cols)]


def _scalars(rng: np.random.Generator, with_c: bool) -> Dict[str, float]:
    """alpha = 1 on half the calls; beta != 0 exactly when C is passed."""
    alpha = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 2.0))
    beta = float(rng.uniform(0.25, 1.5) * rng.choice([-1.0, 1.0])) \
        if with_c else 0.0
    return {"alpha": alpha, "beta": beta}


# -- one builder per routine ----------------------------------------------

def _t(c: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The Fortran-order view scipy takes, or None (no C operand)."""
    return None if c is None else c.T


def _gemm(pool: Pool, dims, p) -> Call:
    m, n, k = dims
    a_t = p.get("a_t", False)
    oa, ob = pool.offset(m * k), pool.offset(k * n)
    oc = pool.offset(m * n) if p["beta"] else None

    def make():
        # a_t: A is the transpose of a row-major (k, m) array, a
        # column-major view the facade must copy and OpenBLAS need not
        a = pool.view(oa, (k, m)).T if a_t else pool.view(oa, (m, k))
        return {"a": a, "b": pool.view(ob, (k, n)),
                "c": pool.view(oc, (m, n))}

    def augem(blas, o):
        return blas.dgemm(o["a"], o["b"], o["c"], alpha=p["alpha"],
                          beta=p["beta"])

    def openblas(o):
        if a_t:  # Aᵀ is op(a) with a itself column-major
            return fblas.dgemm(p["alpha"], o["b"].T, o["a"], p["beta"],
                               _t(o["c"]), trans_b=1).T
        return fblas.dgemm(p["alpha"], o["b"].T, o["a"].T, p["beta"],
                           _t(o["c"])).T

    def check(o, got, ref):
        return oracle.check_gemm(got, ref, o["a"], o["b"], o["c"],
                                 p["alpha"], p["beta"])

    return Call("dgemm", dims, p, 2.0 * m * n * k, make, augem, openblas,
                check)


def _gemv(pool: Pool, dims, p) -> Call:
    m, n = dims
    trans = p["trans"]
    in_len, out_len = (m, n) if trans else (n, m)
    oa, ox = pool.offset(m * n), pool.offset(in_len)
    oy = pool.offset(out_len) if p["beta"] else None

    def make():
        return {"a": pool.view(oa, (m, n)), "x": pool.view(ox, (in_len,)),
                "y": pool.view(oy, (out_len,))}

    def augem(blas, o):
        return blas.dgemv(o["a"], o["x"], o["y"], alpha=p["alpha"],
                          beta=p["beta"], trans=trans)

    def openblas(o):
        # row-major A is column-major Aᵀ: flip the transpose flag
        return fblas.dgemv(p["alpha"], o["a"].T, o["x"], p["beta"], o["y"],
                           trans=0 if trans else 1)

    def check(o, got, ref):
        return oracle.check_gemv(got, ref, o["a"], o["x"], o["y"],
                                 p["alpha"], p["beta"], trans)

    return Call("dgemv", dims, p, 2.0 * m * n, make, augem, openblas, check)


def _dot(pool: Pool, dims, p) -> Call:
    (n,) = dims
    ox, oy = pool.offset(n), pool.offset(n)

    def make():
        return {"x": pool.view(ox, (n,)), "y": pool.view(oy, (n,))}

    return Call("ddot", dims, p, 2.0 * n, make,
                lambda blas, o: blas.ddot(o["x"], o["y"]),
                lambda o: fblas.ddot(o["x"], o["y"]),
                lambda o, got, ref: oracle.check_dot(got, ref, o["x"],
                                                     o["y"]))


def _axpy(pool: Pool, dims, p) -> Call:
    (n,) = dims
    ox, oy = pool.offset(n), pool.offset(n)
    alpha = p["alpha"]

    def make():
        y0 = pool.view(oy, (n,))
        return {"x": pool.view(ox, (n,)), "y0": y0, "y": y0.copy()}

    return Call("daxpy", dims, p, 2.0 * n, make,
                lambda blas, o: blas.daxpy(alpha, o["x"], o["y"]),
                lambda o: fblas.daxpy(o["x"], o["y"], a=alpha),
                lambda o, got, ref: oracle.check_axpy(got, ref, alpha,
                                                      o["x"], o["y0"]))


def _scal(pool: Pool, dims, p) -> Call:
    (n,) = dims
    ox = pool.offset(n)
    alpha = p["alpha"]

    def make():
        x0 = pool.view(ox, (n,))
        return {"x0": x0, "x": x0.copy()}

    return Call("dscal", dims, p, float(n), make,
                lambda blas, o: blas.dscal(alpha, o["x"]),
                lambda o: fblas.dscal(alpha, o["x"]),
                lambda o, got, ref: oracle.check_scal(got, ref, alpha,
                                                      o["x0"]))


def _syrk(pool: Pool, dims, p) -> Call:
    n, k = dims
    oa = pool.offset(n * k)
    oc = pool.offset(n * n) if p["beta"] else None

    def make():
        return {"a": pool.view(oa, (n, k)),
                "c": pool.view(oc, (n, n))}

    def openblas(o):
        # lower triangle of row-major C = upper triangle of Cᵀ
        return fblas.dsyrk(p["alpha"], o["a"].T, p["beta"], _t(o["c"]),
                           trans=1, lower=0).T

    return Call("dsyrk", dims, p, float(n) * (n + 1) * k, make,
                lambda blas, o: blas.dsyrk(o["a"], o["c"], alpha=p["alpha"],
                                           beta=p["beta"]),
                openblas,
                lambda o, got, ref: oracle.check_syrk(
                    got, ref, o["a"], o["c"], p["alpha"], p["beta"]))


def _syr2k(pool: Pool, dims, p) -> Call:
    n, k = dims
    oa, ob = pool.offset(n * k), pool.offset(n * k)
    oc = pool.offset(n * n) if p["beta"] else None

    def make():
        return {"a": pool.view(oa, (n, k)), "b": pool.view(ob, (n, k)),
                "c": pool.view(oc, (n, n))}

    def openblas(o):
        return fblas.dsyr2k(p["alpha"], o["a"].T, o["b"].T, p["beta"],
                            _t(o["c"]), trans=1, lower=0).T

    return Call("dsyr2k", dims, p, 2.0 * n * (n + 1) * k, make,
                lambda blas, o: blas.dsyr2k(o["a"], o["b"], o["c"],
                                            alpha=p["alpha"], beta=p["beta"]),
                openblas,
                lambda o, got, ref: oracle.check_syr2k(
                    got, ref, o["a"], o["b"], o["c"], p["alpha"], p["beta"]))


def _symm(pool: Pool, dims, p) -> Call:
    n, q = dims
    oa, ob = pool.offset(n * n), pool.offset(n * q)
    oc = pool.offset(n * q) if p["beta"] else None

    def make():
        return {"a": pool.view(oa, (n, n)), "b": pool.view(ob, (n, q)),
                "c": pool.view(oc, (n, q))}

    def openblas(o):
        # Cᵀ = Bᵀ sym(A): right side, A's lower triangle is Aᵀ's upper
        return fblas.dsymm(p["alpha"], o["a"].T, o["b"].T, p["beta"],
                           _t(o["c"]), side=1, lower=0).T

    return Call("dsymm", dims, p, 2.0 * n * n * q, make,
                lambda blas, o: blas.dsymm(o["a"], o["b"], o["c"],
                                           alpha=p["alpha"], beta=p["beta"]),
                openblas,
                lambda o, got, ref: oracle.check_symm(
                    got, ref, o["a"], o["b"], o["c"], p["alpha"], p["beta"]))


def _trmm(pool: Pool, dims, p) -> Call:
    n, q = dims
    ol, ob = pool.offset(n * n), pool.offset(n * q)

    def make():
        # the strict upper triangle is pool data the routine must ignore
        return {"l": pool.view(ol, (n, n)), "b": pool.view(ob, (n, q))}

    return Call("dtrmm", dims, p, float(n) * n * q, make,
                lambda blas, o: blas.dtrmm(o["l"], o["b"], alpha=p["alpha"]),
                lambda o: fblas.dtrmm(p["alpha"], o["l"].T, o["b"].T, side=1,
                                      lower=0).T,
                lambda o, got, ref: oracle.check_trmm(
                    got, ref, o["l"], o["b"], p["alpha"]))


def _trsm(pool: Pool, dims, p) -> Call:
    n, q = dims
    ol, ob = pool.offset(n * n), pool.offset(n * q)

    def make():
        # diagonal dominance keeps the solve well conditioned
        l = pool.view(ol, (n, n)).copy()
        l[np.diag_indices(n)] += n
        return {"l": l, "b": pool.view(ob, (n, q))}

    return Call("dtrsm", dims, p, float(n) * n * q, make,
                lambda blas, o: blas.dtrsm(o["l"], o["b"], alpha=p["alpha"]),
                lambda o: fblas.dtrsm(p["alpha"], o["l"].T, o["b"].T, side=1,
                                      lower=0).T,
                lambda o, got, ref: oracle.check_trsm(
                    got, o["l"], o["b"], p["alpha"]))


_BUILDERS = {"dgemm": _gemm, "dgemv": _gemv, "ddot": _dot, "daxpy": _axpy,
             "dscal": _scal, "dsyrk": _syrk, "dsyr2k": _syr2k,
             "dsymm": _symm, "dtrmm": _trmm, "dtrsm": _trsm}

#: workload -> (pool elements, [(routine, count, ranges, flags)]);
#: flag ``c``: some calls pass C (or y) with beta != 0; flag ``trans``:
#: gemv calls alternate between both orientations; flag ``at``: some
#: gemm calls pass A as a transposed (column-major) view
SPECS = {
    # kernel-bound: most shapes are not micro-tile multiples, so edge
    # padding occurs; a quarter of the calls pass C with beta != 0
    "gemm-large": (3 << 20, [
        ("dgemm", 24, [(384, 1536)] * 3, "c"),
    ]),
    # bound by per-call Python overhead; the transposed A operands are
    # the calls on which the argument guard copies (guard.coercions)
    "small-calls": (1 << 17, [
        ("dgemm", 256, [(2, 64)] * 3, "c at"),
        ("dgemv", 256, [(8, 256)] * 2, "c trans"),
        ("ddot", 256, [(8, 4096)], ""),
        ("daxpy", 256, [(8, 4096)], ""),
        ("dscal", 256, [(8, 4096)], ""),
    ]),
    # the Goto driver behind Level-3: many 64-wide blocks, low-k gemm
    "level3-mixed": (3 << 19, [
        ("dsyrk", 12, [(256, 1024), (64, 256)], "c"),
        ("dsyr2k", 12, [(256, 1024), (64, 256)], "c"),
        ("dsymm", 12, [(256, 1024), (64, 256)], "c"),
        ("dtrmm", 12, [(256, 1024), (64, 256)], ""),
        ("dtrsm", 12, [(256, 1024), (64, 256)], ""),
        ("dgemm", 12, [(64, 1024), (64, 1024), (16, 128)], "c"),
    ]),
}


def build(workload: str, seed: int) -> List[Call]:
    """The workload's call list for ``seed`` (same seed, same calls)."""
    pool_size, groups = SPECS[workload]
    rng = np.random.default_rng([seed, list(SPECS).index(workload)])
    pool = Pool(rng, pool_size)
    calls = []
    for design, (routine, count, ranges, flag_text) in enumerate(groups):
        flags = flag_text.split()
        with_c = rng.permutation(count) < (count // 4 if "c" in flags else 0)
        a_t = rng.permutation(count) < count // 4 if "at" in flags else None
        for i, dims in enumerate(draw_shapes(rng, count, ranges, design)):
            params = _scalars(rng, bool(with_c[i]))
            if "trans" in flags:
                params["trans"] = bool(i % 2)
            if a_t is not None:
                params["a_t"] = bool(a_t[i])
            calls.append(_BUILDERS[routine](pool, dims, params))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order]


def routines(workload: str) -> List[str]:
    """The facade methods a workload calls."""
    return [group[0] for group in SPECS[workload][1]]


def first_calls(blas, names: List[str]) -> None:
    """One tiny call of each routine: builds and admits its kernels."""
    a = np.arange(1.0, 65.0).reshape(8, 8) / 64.0
    l = np.tril(a) + np.eye(8)
    x = np.linspace(-1.0, 1.0, 8)
    tiny = {
        "dgemm": lambda: blas.dgemm(a, a),
        "dgemv": lambda: (blas.dgemv(a, x), blas.dgemv(a, x, trans=True)),
        "ddot": lambda: blas.ddot(x, x),
        "daxpy": lambda: blas.daxpy(0.5, x, x.copy()),
        "dscal": lambda: blas.dscal(0.5, x.copy()),
        "dsyrk": lambda: blas.dsyrk(a),
        "dsyr2k": lambda: blas.dsyr2k(a, a),
        "dsymm": lambda: blas.dsymm(a, a),
        "dtrmm": lambda: blas.dtrmm(l, a),
        "dtrsm": lambda: blas.dtrsm(l, a),
    }
    for name in names:
        tiny[name]()
