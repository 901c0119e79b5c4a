"""Instruction mapping rules — paper Tables 1, 2, 3 and 4.

The template optimizers emit three-address *pseudo* operations (Load, Mul,
Add, Store, Vld, Vdup, Shuf, Vmul, Vadd, Vst).  This module lowers each of
them to concrete machine instructions according to the target
:class:`~repro.isa.arch.ArchSpec`:

- AVX mode: non-destructive three-operand ``vmulpd``/``vaddpd``.
- SSE mode: the same ops through the encoding rule of
  :mod:`repro.isa.instructions` — legacy ``op src, dst`` is VEX
  ``vop src, dst, dst`` — so a three-address op whose destination does not
  already hold its first operand gets a ``movapd`` in front, and
  ``Mul+Add`` becomes ``Mov r1,r2; Mul r0,r2; Add r2,r3`` (Table 1 line 2,
  left column).  :meth:`MappingRules._op` is the one place this happens.
- FMA3: ``Mul+Add`` collapses to ``vfmadd231pd r0,r1,r3`` (Table 1 line 3).
- FMA4: ``vfmaddpd r0,r1,r3,r3`` (Table 1 line 4; four-operand AMD form).

All methods return ``List[Instr]`` so multi-instruction lowerings compose
uniformly.
"""

from __future__ import annotations

from typing import List, Optional

from .arch import ArchSpec
from .instructions import Instr, instr
from .operands import Imm, Mem, Operand
from .registers import Register


#: Ops whose two sources may trade places; SSE then picks which one to copy.
_COMMUTATIVE = frozenset({"addsd", "mulsd", "addpd", "mulpd", "xorpd"})


class MappingRules:
    """Arch-parameterized lowering of the paper's pseudo instructions."""

    def __init__(self, arch: ArchSpec) -> None:
        self.arch = arch
        self._vex = arch.simd == "avx"
        self._wide = arch.vector_bytes == 32

    # ------------------------------------------------------------------
    # the two encoding-aware helpers every lowering goes through
    # ------------------------------------------------------------------
    def _mov(self, mn: str, src: Operand, dst: Operand,
             comment: str = None) -> List[Instr]:
        """A move: the VEX twin has the same operands."""
        return [instr("v" + mn if self._vex else mn, src, dst, comment=comment)]

    def _op(self, mn: str, src: Register, src1: Register, dst: Register,
            imm: Imm = None, comment: str = None) -> List[Instr]:
        """``dst = src1 <mn> src``: AT&T ``v<mn> [imm,] src, src1, dst``.

        SSE only has ``<mn> src, dst`` (= ``v<mn> src, dst, dst``), so it
        copies ``src1`` into ``dst`` first unless ``dst`` already holds it
        (for a commutative op, either source) and then reads the copy
        wherever it read ``src1``.  A commutative op with a fresh ``dst``
        copies ``src`` — Table 1's ``Mov r1,r2; Mul r0,r2``.
        """
        pre = (imm,) if imm is not None else ()
        if self._vex:
            return [instr("v" + mn, *pre, src, src1, dst, comment=comment)]
        if mn in _COMMUTATIVE and dst != src1:
            src, src1 = src1, src
        if dst == src1:
            return [instr(mn, *pre, src, dst, comment=comment)]
        if dst == src:
            raise ValueError(f"{mn}: destination {dst} clobbers a source")
        return [instr("movapd", src1, dst, comment=comment),
                instr(mn, *pre, dst if src == src1 else src, dst)]

    def _v(self, reg: Register) -> Register:
        """Vector register at the arch's full width."""
        return reg.as_width(self.arch.vector_bytes)

    # ------------------------------------------------------------------
    # scalar double operations (mmCOMP / mmSTORE / mvCOMP, Tables 1-3)
    # ------------------------------------------------------------------
    def load_scalar(self, src: Mem, dst: Register, comment: str = None) -> List[Instr]:
        """``Load arr,idx,r1`` -> ``Load idx*SIZE(arr),r1``."""
        return self._mov("movsd", src, dst.xmm, comment)

    def store_scalar(self, src: Register, dst: Mem, comment: str = None) -> List[Instr]:
        return self._mov("movsd", src.xmm, dst, comment)

    def mov_scalar(self, src: Register, dst: Register) -> List[Instr]:
        return self._mov("movapd", src.xmm, dst.xmm)

    def zero_scalar(self, reg: Register) -> List[Instr]:
        return self._op("xorpd", reg.xmm, reg.xmm, reg.xmm)

    def add_scalar(self, src: Register, acc: Register) -> List[Instr]:
        """acc += src (scalar double)."""
        return self._op("addsd", src.xmm, acc.xmm, acc.xmm)

    def sub_scalar(self, src: Register, acc: Register) -> List[Instr]:
        """acc -= src (scalar double)."""
        return self._op("subsd", src.xmm, acc.xmm, acc.xmm)

    def mul_scalar(self, src: Register, acc: Register) -> List[Instr]:
        """acc *= src (scalar double)."""
        return self._op("mulsd", src.xmm, acc.xmm, acc.xmm)

    def _mul_add(self, kind: str, a: Register, b: Register, acc: Register,
                 tmp: Optional[Register], comment: str) -> List[Instr]:
        """acc += a*b with ``kind`` ``sd`` or ``pd`` — Table 1 lines 2-4."""
        if self.arch.fma == "fma3":
            return [instr(f"vfmadd231{kind}", a, b, acc, comment=comment)]
        if self.arch.fma == "fma4":
            return [instr(f"vfmadd{kind}", acc, b, a, acc, comment=comment)]
        assert tmp is not None, "mul+add without FMA needs a temp register"
        return (self._op(f"mul{kind}", a, b, tmp, comment=comment)
                + self._op(f"add{kind}", tmp, acc, acc))

    def mul_add_scalar(self, a: Register, b: Register, acc: Register,
                       tmp: Optional[Register] = None,
                       comment: str = None) -> List[Instr]:
        """acc += a*b — Table 1 lines 2-4, scalar (sd) forms."""
        return self._mul_add("sd", a.xmm, b.xmm, acc.xmm,
                             tmp and tmp.xmm, comment)

    def extract_lane(self, src: Register, lane: int,
                     dst: Register) -> List[Instr]:
        """Copy lane ``lane`` of ``src`` into the low lane of ``dst``."""
        if lane < 2:
            if lane:
                return self._op("unpckhpd", src.xmm, src.xmm, dst.xmm)
            return self.mov_scalar(src, dst)
        if not self._wide:
            raise ValueError("lane >= 2 requires 256-bit registers")
        out = [instr("vextractf128", Imm(1), src.ymm, dst.xmm)]
        if lane == 3:
            out += self._op("unpckhpd", dst.xmm, dst.xmm, dst.xmm)
        return out

    # ------------------------------------------------------------------
    # vector operations (mmUnrolledCOMP / mmUnrolledSTORE / mvUnrolledCOMP,
    # Tables 1-4 packed forms)
    # ------------------------------------------------------------------
    def vload(self, src: Mem, dst: Register, comment: str = None,
              aligned: bool = False) -> List[Instr]:
        """``Vld idx*SIZE(arr),r1`` — Table 4 line 1."""
        return self._mov("movapd" if aligned else "movupd", src, self._v(dst),
                         comment)

    def vstore(self, src: Register, dst: Mem, comment: str = None,
               aligned: bool = False) -> List[Instr]:
        return self._mov("movapd" if aligned else "movupd", self._v(src), dst,
                         comment)

    def vzero(self, reg: Register) -> List[Instr]:
        v = self._v(reg)
        return self._op("xorpd", v, v, v)

    def vdup(self, src: Mem, dst: Register, comment: str = None) -> List[Instr]:
        """``Vdup``: load one element and replicate it across all lanes.

        128-bit: ``movddup`` (SSE3) / ``vmovddup``; 256-bit:
        ``vbroadcastsd`` (memory source — the only form Sandy Bridge
        supports).
        """
        if self._wide:
            return [instr("vbroadcastsd", src, dst.ymm, comment=comment)]
        return self._mov("movddup", src, dst.xmm, comment)

    def vadd(self, src: Register, acc: Register) -> List[Instr]:
        """acc += src, packed."""
        return self._op("addpd", self._v(src), self._v(acc), self._v(acc))

    def vmul_into(self, a: Register, b: Register, dst: Register) -> List[Instr]:
        """dst = b*a, packed (AT&T ``vmulpd a, b, dst``)."""
        return self._op("mulpd", self._v(a), self._v(b), self._v(dst))

    def vmul_add(self, a: Register, b: Register, acc: Register,
                 tmp: Optional[Register] = None,
                 comment: str = None) -> List[Instr]:
        """acc += a*b, packed — Table 1 lines 2-4 (the heart of the paper)."""
        v = self._v
        return self._mul_add("pd", v(a), v(b), v(acc), tmp and v(tmp), comment)

    # -- shuffles (Table 4 line 2) -------------------------------------------
    def shuf_swap_adjacent(self, src: Register, dst: Register) -> List[Instr]:
        """Swap each adjacent pair of lanes: (b0,b1,b2,b3)->(b1,b0,b3,b2).

        This is the paper's ``Shuf imm0`` for n=2 (SSE: ``shufpd $1``) and
        the in-lane half of the AVX Shuf method (``vpermilpd $5``).
        """
        if self._vex:
            return [instr("vpermilpd", Imm(5 if self._wide else 1),
                          self._v(src), self._v(dst))]
        return self._op("shufpd", src.xmm, src.xmm, dst.xmm, imm=Imm(1))

    def shuf_swap_lanes(self, src: Register, dst: Register) -> List[Instr]:
        """Swap the two 128-bit halves of a 256-bit register (AVX only)."""
        if not self._wide:
            raise ValueError("lane swap requires 256-bit AVX")
        return [instr("vperm2f128", Imm(1), src.ymm, src.ymm, dst.ymm)]

    def vblend(self, imm: int, a: Register, b: Register,
               dst: Register) -> List[Instr]:
        """dst[k] = b[k] if imm bit k else a[k] (AVX only)."""
        if not self._vex:
            raise ValueError("vblendpd requires AVX")
        v = self._v
        return [instr("vblendpd", Imm(imm), v(b), v(a), v(dst))]

    def vperm128_lo_hi(self, lo_src: Register, hi_src: Register,
                       dst: Register) -> List[Instr]:
        """dst = (low half of lo_src, high half of hi_src) — 256-bit AVX."""
        if not self._wide:
            raise ValueError("vperm2f128 requires 256-bit AVX")
        return [instr("vperm2f128", Imm(0x30), hi_src.ymm, lo_src.ymm,
                      dst.ymm)]

    def shufpd_combine(self, imm: int, a: Register, b: Register,
                       dst: Register) -> List[Instr]:
        """dst = shufpd(a, b, imm): dst[0]=a[imm&1], dst[1]=b[(imm>>1)&1].

        128-bit only (used by the Shuf-method store un-permutation).
        """
        return self._op("shufpd", b.xmm, a.xmm, dst.xmm, imm=Imm(imm))

    # -- horizontal reduction (DOT epilogue) ----------------------------------
    def hreduce_to_scalar(self, acc: Register, tmp: Register,
                          comment: str = None) -> List[Instr]:
        """Sum all lanes of ``acc`` into its low scalar lane.

        256-bit: extract the high half and add it to the low half; then
        fold the remaining pair with an unpack + add.
        """
        a, t = acc.xmm, tmp.xmm
        out: List[Instr] = []
        if self._wide:
            out = [instr("vextractf128", Imm(1), acc.ymm, t, comment=comment)]
            out += self._op("addpd", t, a, a)
            comment = None
        return (out + self._op("unpckhpd", a, a, t, comment=comment)
                + self._op("addsd", t, a, a))

    # -- kernel exit ------------------------------------------------------------
    def epilogue(self) -> List[Instr]:
        """``vzeroupper`` after 256-bit code (avoids the SSE transition
        penalty in the caller)."""
        return [instr("vzeroupper")] if self._wide else []
