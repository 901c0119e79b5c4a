"""The 512-bit tier on silicon: native execution agrees with the emulator.

Runs only on hosts with AVX-512F/DQ/VL (the ``skylakex`` spec); everywhere
else the emulator alone covers the tier (golden snapshots, conformance and
the tuning-space sweep).  Two layers, as in ``test_differential``:

- random EVEX sequences over all 32 registers at every width, including
  the ``vextractf64x2``/``vextractf64x4`` extracts and the implicit zeroing
  of the lanes above each write, compared bit for bit;
- the built-in ``skylakex`` kernels on small whole-tile shapes, native
  against emulated, bit for bit.
"""

import ctypes

import numpy as np
import pytest

from repro.backend.compiler import build_shared
from repro.backend.runner import load_kernel
from repro.blas.gemm import kernel_multiples
from repro.core.framework import Augem
from repro.emu.run import call_items, call_kernel
from repro.isa.arch import SKYLAKEX, detect_host
from repro.isa.gas import emit_function
from repro.isa.instructions import Instr, instr
from repro.isa.operands import Imm, Mem
from repro.isa.registers import GP, N_VEC_REGS, vec, zmm

from tests.conftest import needs_cc

pytestmark = [
    needs_cc,
    pytest.mark.skipif(
        detect_host().capability_rank < SKYLAKEX.capability_rank,
        reason="host lacks AVX-512F/DQ/VL"),
]

RDI, RSI, RDX = GP["rdi"], GP["rsi"], GP["rdx"]
LANES = 8

# (mnemonic, operand widths in AT&T order; 0 = immediate, -1 = memory)
_OPS = [
    ("vaddpd", (64, 64, 64)), ("vsubpd", (64, 64, 64)),
    ("vmulpd", (64, 64, 64)), ("vxorpd", (64, 64, 64)),
    ("vunpcklpd", (64, 64, 64)), ("vunpckhpd", (64, 64, 64)),
    ("vshufpd", (0, 64, 64, 64)), ("vpermilpd", (0, 64, 64)),
    ("vfmadd231pd", (64, 64, 64)), ("vfmadd213pd", (64, 64, 64)),
    ("vfmadd132pd", (64, 64, 64)),
    ("vaddpd", (32, 32, 32)), ("vfmadd231pd", (32, 32, 32)),
    ("vaddpd", (16, 16, 16)), ("vaddsd", (16, 16, 16)),
    ("vmulsd", (16, 16, 16)), ("vsubsd", (16, 16, 16)),
    ("vfmadd231sd", (16, 16, 16)), ("vmovapd", (64, 64)),
    ("vmovapd", (16, 16)), ("vmovddup", (-1, 16)),
    ("vbroadcastsd", (-1, 64)), ("vbroadcastsd", (-1, 32)),
    ("vextractf64x4", (0, 64, 32)), ("vextractf64x2", (0, 64, 16)),
    ("vextractf64x2", (0, 32, 16)),
]


def _sequence(rng, length):
    out = []
    for _ in range(length):
        mnemonic, widths = _OPS[rng.integers(len(_OPS))]
        ops = []
        for w in widths:
            if w == 0:
                ops.append(Imm(int(rng.integers(0, 256))))
            elif w == -1:
                ops.append(Mem(base=RDX, disp=8 * int(rng.integers(0, 4))))
            else:
                ops.append(vec(int(rng.integers(0, N_VEC_REGS)), w))
        out.append(Instr(mnemonic, tuple(ops)))
    return out


def _wrap(seq):
    """Load zmm0-31 from (rdi), run ``seq``, store zmm0-31 to (rsi)."""
    items = [instr("vmovupd", Mem(base=RDI, disp=64 * i), zmm(i))
             for i in range(N_VEC_REGS)]
    items += seq
    items += [instr("vmovupd", zmm(i), Mem(base=RSI, disp=64 * i))
              for i in range(N_VEC_REGS)]
    return items + [instr("vzeroupper"), instr("ret")]


def _native(items, inputs, scalars, name):
    so = build_shared({f"{name}.S": emit_function(name, items)}, tag=name)
    fn = so.symbol(name)
    dp = ctypes.POINTER(ctypes.c_double)
    fn.restype = None
    fn.argtypes = [dp, dp, dp]
    out = np.zeros_like(inputs)
    fn(inputs.ctypes.data_as(dp), out.ctypes.data_as(dp),
       scalars.ctypes.data_as(dp))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_evex_sequences_match_silicon_bitwise(seed):
    rng = np.random.default_rng(seed)
    seq = _sequence(rng, 24)
    inputs = rng.standard_normal(N_VEC_REGS * LANES)
    scalars = rng.standard_normal(4)
    items = _wrap(seq)
    native = _native(items, inputs, scalars, f"evex_seq{seed}")
    emulated = np.zeros_like(inputs)
    call_items(items, [inputs, emulated, scalars.copy()])
    np.testing.assert_array_equal(
        native.view(np.uint64), emulated.view(np.uint64),
        err_msg="\n".join(str(i) for i in seq))


def test_kernels_match_emulator_bitwise(rng):
    aug = Augem(arch=SKYLAKEX)
    gk = aug.generate_named("gemm", name="skx_xval_gemm")
    mu, nu, ku = kernel_multiples(gk)
    mc, nc, kc, ldc = mu, nu, 2 * ku, mu + 3
    a = rng.standard_normal(kc * mc)
    b = rng.standard_normal(nc * kc)
    c_native = rng.standard_normal(ldc * nc)
    c_emu = c_native.copy()
    load_kernel("gemm", gk)(mc, nc, kc, a, b, c_native, ldc)
    call_kernel(gk, [mc, nc, kc, a, b, c_emu, ldc])
    np.testing.assert_array_equal(c_native, c_emu)

    n = 64  # a multiple of every default level-1 unroll on this tier
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    dot = aug.generate_named("dot", name="skx_xval_dot")
    assert load_kernel("dot", dot)(n, x, y) == call_kernel(dot, [n, x, y])
    axpy = aug.generate_named("axpy", name="skx_xval_axpy")
    y_native, y_emu = y.copy(), y.copy()
    load_kernel("axpy", axpy)(n, 1.5, x, y_native)
    call_kernel(axpy, [n, 1.5, x, y_emu])
    np.testing.assert_array_equal(y_native, y_emu)
