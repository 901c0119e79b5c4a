"""Instruction mapping rule tests — paper Tables 1, 2, 3, 4 row by row."""

import pytest

from repro.isa.arch import (GENERIC_SSE, HASWELL, PILEDRIVER, SANDYBRIDGE,
                            SKYLAKEX)
from repro.isa.mapping import WIDTH_ROWS, MappingRules
from repro.isa.operands import Imm, Mem
from repro.isa.registers import GP, xmm, ymm, zmm

M = Mem(base=GP["rax"], disp=8)
R0, R1, R2, R3 = xmm(0), xmm(1), xmm(2), xmm(3)


def mnems(instrs):
    return [i.mnemonic for i in instrs]


# -- Table 1 line 1: Load ------------------------------------------------------

def test_load_scalar_sse_vs_avx():
    assert mnems(MappingRules(GENERIC_SSE).load_scalar(M, R1)) == ["movsd"]
    assert mnems(MappingRules(SANDYBRIDGE).load_scalar(M, R1)) == ["vmovsd"]


# -- Table 1 lines 2-4: Mul+Add -----------------------------------------------

def test_mul_add_sse_three_instructions():
    out = MappingRules(GENERIC_SSE).mul_add_scalar(R0, R1, R3, tmp=R2)
    assert mnems(out) == ["movapd", "mulsd", "addsd"]  # Mov r1,r2; Mul; Add


def test_mul_add_avx_two_instructions():
    out = MappingRules(SANDYBRIDGE).mul_add_scalar(R0, R1, R3, tmp=R2)
    assert mnems(out) == ["vmulsd", "vaddsd"]


def test_mul_add_fma3_single_instruction():
    out = MappingRules(HASWELL).mul_add_scalar(R0, R1, R3)
    assert mnems(out) == ["vfmadd231sd"]


def test_mul_add_fma4_single_instruction():
    out = MappingRules(PILEDRIVER).mul_add_scalar(R0, R1, R3)
    assert mnems(out) == ["vfmaddsd"]
    assert len(out[0].operands) == 4  # the four-operand AMD form


def test_vmul_add_packed_variants():
    assert mnems(MappingRules(GENERIC_SSE).vmul_add(R0, R1, R3, tmp=R2)) == [
        "movapd", "mulpd", "addpd"]
    assert mnems(MappingRules(SANDYBRIDGE).vmul_add(R0, R1, R3, tmp=R2)) == [
        "vmulpd", "vaddpd"]
    assert mnems(MappingRules(HASWELL).vmul_add(R0, R1, R3)) == ["vfmadd231pd"]
    assert mnems(MappingRules(PILEDRIVER).vmul_add(R0, R1, R3)) == ["vfmaddpd"]


def test_non_fma_requires_temp():
    with pytest.raises(AssertionError):
        MappingRules(GENERIC_SSE).mul_add_scalar(R0, R1, R3)


# -- Table 2: mmSTORE ----------------------------------------------------------

def test_store_scalar():
    assert mnems(MappingRules(GENERIC_SSE).store_scalar(R1, M)) == ["movsd"]
    assert mnems(MappingRules(HASWELL).store_scalar(R1, M)) == ["vmovsd"]


def test_add_scalar_two_vs_three_operand():
    sse = MappingRules(GENERIC_SSE).add_scalar(R1, R2)
    assert mnems(sse) == ["addsd"] and len(sse[0].operands) == 2
    avx = MappingRules(SANDYBRIDGE).add_scalar(R1, R2)
    assert mnems(avx) == ["vaddsd"] and len(avx[0].operands) == 3


# -- Table 4: Vld / Vdup / Shuf ------------------------------------------------

def test_vload_width_follows_arch():
    sse = MappingRules(GENERIC_SSE).vload(M, R1)
    assert sse[0].operands[1].width == 16
    avx = MappingRules(HASWELL).vload(M, R1)
    assert avx[0].operands[1].width == 32


def test_vdup_selection():
    assert mnems(MappingRules(GENERIC_SSE).vdup(M, R1)) == ["movddup"]
    assert mnems(MappingRules(SANDYBRIDGE).vdup(M, R1)) == ["vbroadcastsd"]
    narrow = MappingRules(
        SANDYBRIDGE.__class__(name="avx128", simd="avx", vector_bytes=16))
    assert mnems(narrow.vdup(M, R1)) == ["vmovddup"]


def test_shuf_swap_adjacent():
    sse = MappingRules(GENERIC_SSE).shuf_swap_adjacent(R1, R1)
    assert mnems(sse) == ["shufpd"]
    assert sse[0].operands[0] == Imm(1)
    avx = MappingRules(HASWELL).shuf_swap_adjacent(R1, R2)
    assert mnems(avx) == ["vpermilpd"]
    assert avx[0].operands[0] == Imm(5)  # swap within both 128-bit lanes


def test_shuf_swap_lanes_avx_only():
    out = MappingRules(HASWELL).shuf_swap_lanes(R1, R2)
    assert mnems(out) == ["vperm2f128"]
    with pytest.raises(ValueError):
        MappingRules(GENERIC_SSE).shuf_swap_lanes(R1, R2)


def test_shufpd_combine_sse_copies_when_needed():
    out = MappingRules(GENERIC_SSE).shufpd_combine(2, R1, R2, R3)
    assert mnems(out) == ["movapd", "shufpd"]
    out2 = MappingRules(GENERIC_SSE).shufpd_combine(2, R3, R2, R3)
    assert mnems(out2) == ["shufpd"]  # dst aliases first source


def test_zero_idioms():
    assert mnems(MappingRules(GENERIC_SSE).vzero(R1)) == ["xorpd"]
    assert mnems(MappingRules(HASWELL).vzero(R1)) == ["vxorpd"]


def test_hreduce_shapes():
    sse = MappingRules(GENERIC_SSE).hreduce_to_scalar(R1, R2)
    assert mnems(sse) == ["movapd", "unpckhpd", "addsd"]
    avx = MappingRules(HASWELL).hreduce_to_scalar(R1, R2)
    assert mnems(avx) == ["vextractf128", "vaddpd", "vunpckhpd", "vaddsd"]


def test_vmul_into_sse_avoids_self_copy():
    out = MappingRules(GENERIC_SSE).vmul_into(R1, R2, R1)
    assert mnems(out) == ["mulpd"]
    out2 = MappingRules(GENERIC_SSE).vmul_into(R1, R2, R3)
    assert mnems(out2) == ["movapd", "mulpd"]


# -- the 512-bit width row (AVX-512: EVEX forms only) --------------------------

#: VEX instructions without an EVEX form: they cannot encode registers
#: 16-31, so the 512-bit row must never select them
_NO_EVEX_FORM = {"vextractf128", "vperm2f128", "vblendpd", "vinsertf128",
                 "vhaddpd"}


def test_width_rows_cover_every_vector_width():
    assert sorted(WIDTH_ROWS) == [16, 32, 64]
    row = WIDTH_ROWS[64]
    used = {row.extract, row.lane_permute, row.blend, *row.epilogue,
            *row.halves}
    assert not used & _NO_EVEX_FORM


def test_avx512_broadcast_load_and_exit():
    skx = MappingRules(SKYLAKEX)
    out = skx.vdup(M, xmm(21))
    assert mnems(out) == ["vbroadcastsd"] and out[0].operands[1] == zmm(21)
    assert skx.vload(M, R1)[0].operands[1] == zmm(1)
    assert mnems(skx.vmul_add(R0, R1, xmm(30))) == ["vfmadd231pd"]
    assert mnems(skx.epilogue()) == ["vzeroupper"]


@pytest.mark.parametrize("lane", range(2, 8))
def test_avx512_extract_lane(lane):
    out = MappingRules(SKYLAKEX).extract_lane(xmm(20), lane, xmm(25))
    assert out[0].mnemonic == "vextractf64x2"
    assert out[0].operands == (Imm(lane // 2), zmm(20), xmm(25))
    assert mnems(out[1:]) == (["vunpckhpd"] if lane % 2 else [])
    with pytest.raises(ValueError):
        MappingRules(HASWELL).extract_lane(R1, 4, R2)


def test_avx512_hreduce_halves_twice():
    out = MappingRules(SKYLAKEX).hreduce_to_scalar(xmm(21), xmm(25))
    assert mnems(out) == ["vextractf64x4", "vaddpd", "vextractf64x2",
                          "vaddpd", "vunpckhpd", "vaddsd"]
    assert out[0].operands == (Imm(1), zmm(21), ymm(25))
    assert out[2].operands == (Imm(1), ymm(21), xmm(25))


def test_avx512_has_no_128_bit_lane_shuffles():
    skx = MappingRules(SKYLAKEX)
    assert skx.shuf_swap_adjacent(R1, R2)[0].operands[0] == Imm(0x55)
    for bad in (lambda: skx.shuf_swap_lanes(R1, R2),
                lambda: skx.vperm128_lo_hi(R1, R2, R3),
                lambda: skx.vblend(0b1010, R1, R2, R3)):
        with pytest.raises(ValueError):
            bad()
