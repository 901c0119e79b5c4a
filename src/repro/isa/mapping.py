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

What depends on the vector width — the broadcast, the lane extract, the
halving steps of a horizontal sum, the 128-bit shuffles of the Shuf method
and the exit sequence — is one :class:`WidthRow` per width in
:data:`WIDTH_ROWS`, not a branch.  The 512-bit row uses only instructions
that have an EVEX form, because registers 16-31 encode only as EVEX.

All methods return ``List[Instr]`` so multi-instruction lowerings compose
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .arch import ArchSpec
from .instructions import Instr, instr
from .operands import Imm, Mem, Operand
from .registers import Register


#: Ops whose two sources may trade places; SSE then picks which one to copy.
_COMMUTATIVE = frozenset({"addsd", "mulsd", "addpd", "mulpd", "xorpd"})


@dataclass(frozen=True)
class WidthRow:
    """The width-specific mnemonics of one vector width."""

    #: ``Vdup`` from memory, as a legacy name (VEX code prefixes ``v``)
    broadcast: str
    #: copies 128-bit lane pair ``imm`` of a full-width register to an xmm
    #: (``None``: the register is one lane pair)
    extract: Optional[str]
    #: horizontal sum: the extracts of the upper half, from the full width
    #: down to 128 bits; each is followed by a packed add of the halves
    halves: Tuple[str, ...]
    #: 128-bit half permute and lane blend of the 4-lane Shuf method
    #: (``None``: not available at this width)
    lane_permute: Optional[str]
    blend: Optional[str]
    #: instructions before ``ret`` (``vzeroupper`` avoids the SSE
    #: transition penalty in the caller after wide code)
    epilogue: Tuple[str, ...]


#: vector width in bytes -> its row (paper Tables 1-4 across widths)
WIDTH_ROWS: Dict[int, WidthRow] = {
    16: WidthRow(broadcast="movddup", extract=None, halves=(),
                 lane_permute=None, blend="vblendpd", epilogue=()),
    32: WidthRow(broadcast="broadcastsd", extract="vextractf128",
                 halves=("vextractf128",),
                 lane_permute="vperm2f128", blend="vblendpd",
                 epilogue=("vzeroupper",)),
    # no EVEX form exists for vextractf128, vperm2f128 or vblendpd
    64: WidthRow(broadcast="broadcastsd", extract="vextractf64x2",
                 halves=("vextractf64x4", "vextractf64x2"),
                 lane_permute=None, blend=None,
                 epilogue=("vzeroupper",)),
}


class MappingRules:
    """Arch-parameterized lowering of the paper's pseudo instructions."""

    def __init__(self, arch: ArchSpec) -> None:
        self.arch = arch
        self._vex = arch.simd == "avx"
        self._row = WIDTH_ROWS[arch.vector_bytes]

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
        if self._row.extract is None or lane >= self.arch.doubles_per_vector:
            raise ValueError(f"no lane {lane} in {self.arch.vector_bytes * 8}"
                             "-bit registers")
        out = [instr(self._row.extract, Imm(lane // 2), self._v(src), dst.xmm)]
        if lane % 2:
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

        128-bit: ``movddup`` (SSE3) / ``vmovddup``; wider:
        ``vbroadcastsd`` (memory source — the only form Sandy Bridge
        supports).
        """
        return self._mov(self._row.broadcast, src, self._v(dst), comment)

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
            odd = 0x55 & ((1 << self.arch.doubles_per_vector) - 1)
            return [instr("vpermilpd", Imm(odd), self._v(src), self._v(dst))]
        return self._op("shufpd", src.xmm, src.xmm, dst.xmm, imm=Imm(1))

    def _lane_permute(self) -> str:
        if self._row.lane_permute is None:
            raise ValueError("128-bit lane permutes need 256-bit AVX")
        return self._row.lane_permute

    def shuf_swap_lanes(self, src: Register, dst: Register) -> List[Instr]:
        """Swap the two 128-bit halves of a 256-bit register (AVX only)."""
        v = self._v
        return [instr(self._lane_permute(), Imm(1), v(src), v(src), v(dst))]

    def vblend(self, imm: int, a: Register, b: Register,
               dst: Register) -> List[Instr]:
        """dst[k] = b[k] if imm bit k else a[k] (AVX only)."""
        if not self._vex or self._row.blend is None:
            raise ValueError("vblendpd requires VEX-encoded AVX")
        v = self._v
        return [instr(self._row.blend, Imm(imm), v(b), v(a), v(dst))]

    def vperm128_lo_hi(self, lo_src: Register, hi_src: Register,
                       dst: Register) -> List[Instr]:
        """dst = (low half of lo_src, high half of hi_src) — 256-bit AVX."""
        v = self._v
        return [instr(self._lane_permute(), Imm(0x30), v(hi_src), v(lo_src),
                      v(dst))]

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

        Wider than 128 bits: extract the high half and add it to the low
        half until one lane pair is left; then fold the pair with an
        unpack + add.
        """
        out: List[Instr] = []
        width = self.arch.vector_bytes
        for mn in self._row.halves:
            width //= 2
            a, t = acc.as_width(width), tmp.as_width(width)
            out.append(instr(mn, Imm(1), acc.as_width(2 * width), t,
                             comment=comment))
            out += self._op("addpd", t, a, a)
            comment = None
        a, t = acc.xmm, tmp.xmm
        return (out + self._op("unpckhpd", a, a, t, comment=comment)
                + self._op("addsd", t, a, a))

    # -- kernel exit ------------------------------------------------------------
    def epilogue(self) -> List[Instr]:
        """The width row's exit sequence (``vzeroupper`` after wide code)."""
        return [instr(mn) for mn in self._row.epilogue]
