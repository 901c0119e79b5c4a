"""Per-instruction emulator semantics tests.

Each test builds a short instruction sequence and inspects machine state —
the emulator's semantics must mirror the hardware manual because it is the
oracle for FMA4/Piledriver code the host cannot run.
"""

import numpy as np
import pytest

from repro.emu.machine import EmuError, Machine
from repro.emu.memory import Memory
from repro.isa.instructions import INSTR_INFO, Label, instr
from repro.isa.operands import Imm, LabelRef, Mem
from repro.isa.registers import GP, xmm, ymm, zmm

RAX, RBX, RCX = GP["rax"], GP["rbx"], GP["rcx"]


def run(items, setup=None, floats=None, mem_size=1 << 14):
    mem = Memory(mem_size)
    m = Machine(list(items), mem, max_steps=100_000)
    if setup:
        m.state.gp.update(setup)
    if floats is not None:
        for idx, lanes in floats.items():
            m.state.vec[idx][: len(lanes)] = lanes
    pc = 0
    while pc < len(m.items):
        it = m.items[pc]
        if not isinstance(it, type(instr("nop"))):
            pc += 1
            continue
        nxt = m._exec(it, pc)
        if nxt is None:
            break
        pc = nxt
    return m


# -- GP ---------------------------------------------------------------------

def test_mov_imm_and_reg():
    m = run([instr("mov", Imm(7), RAX), instr("mov", RAX, RBX)])
    assert m.state.gp["rbx"] == 7


def test_add_sub_imul():
    m = run([
        instr("mov", Imm(10), RAX),
        instr("add", Imm(5), RAX),
        instr("sub", Imm(3), RAX),
        instr("imul", Imm(4), RAX),
    ])
    assert m.state.gp["rax"] == 48


def test_imul_signed():
    m = run([instr("mov", Imm(-3), RAX), instr("imul", Imm(5), RAX)])
    assert m.state.gp["rax"] == (-15) % 2**64


def test_lea_computes_address():
    m = run([instr("lea", Mem(base=RAX, index=RBX, scale=8, disp=16), RCX)],
            setup={"rax": 100, "rbx": 3})
    assert m.state.gp["rcx"] == 100 + 24 + 16


def test_neg_and_shifts():
    m = run([
        instr("mov", Imm(2), RAX),
        instr("sal", Imm(4), RAX),
        instr("neg", RAX),
    ])
    assert m.state.gp["rax"] == (-32) % 2**64


def test_sar_arithmetic_shift():
    m = run([instr("mov", Imm(-16), RAX), instr("sar", Imm(2), RAX)])
    assert m.state.gp["rax"] == (-4) % 2**64


def test_cmp_jl_signed():
    items = [
        instr("mov", Imm(-5), RAX),
        instr("mov", Imm(3), RBX),
        instr("cmp", RBX, RAX),  # flags of rax - rbx = -8
        instr("jl", LabelRef("less")),
        instr("mov", Imm(0), RCX),
        instr("jmp", LabelRef("end")),
        Label("less"),
        instr("mov", Imm(1), RCX),
        Label("end"),
    ]
    mem = Memory(1 << 12)
    m = Machine(items, mem)
    m.run()
    assert m.state.gp["rcx"] == 1


@pytest.mark.parametrize("mn,a,b,taken", [
    ("je", 4, 4, True), ("je", 4, 5, False),
    ("jne", 4, 5, True),
    ("jle", 4, 4, True), ("jle", 5, 4, False),
    ("jg", 5, 4, True), ("jge", 4, 4, True),
])
def test_conditional_branches(mn, a, b, taken):
    items = [
        instr("mov", Imm(a), RAX),
        instr("mov", Imm(b), RBX),
        instr("cmp", RBX, RAX),
        instr(mn, LabelRef("hit")),
        instr("mov", Imm(0), RCX),
        instr("jmp", LabelRef("end")),
        Label("hit"),
        instr("mov", Imm(1), RCX),
        Label("end"),
    ]
    m = Machine(items, Memory(1 << 12))
    m.run()
    assert m.state.gp["rcx"] == (1 if taken else 0)


def test_push_pop():
    mem = Memory(1 << 12)
    m = Machine([instr("push", RAX), instr("pop", RBX)], mem)
    m.state.gp["rsp"] = mem.alloc(256) + 128
    m.state.gp["rax"] = 42
    m.run()
    assert m.state.gp["rbx"] == 42


def test_ret_requires_sentinel():
    mem = Memory(1 << 12)
    m = Machine([instr("ret")], mem)
    rsp = mem.alloc(64)
    mem.write_u64(rsp, 0x1234)
    m.state.gp["rsp"] = rsp
    with pytest.raises(EmuError):
        m.run()


def test_runaway_loop_detected():
    items = [Label("top"), instr("jmp", LabelRef("top"))]
    m = Machine(items, Memory(1 << 12), max_steps=100)
    with pytest.raises(EmuError):
        m.run()


def test_undefined_label_raises():
    m = Machine([instr("jmp", LabelRef("nowhere"))], Memory(1 << 12))
    with pytest.raises(EmuError):
        m.run()


def test_duplicate_label_rejected():
    with pytest.raises(EmuError):
        Machine([Label("x"), Label("x")], Memory(1 << 12))


# -- SSE scalar/packed ---------------------------------------------------------

def test_movsd_load_zeroes_upper():
    mem = Memory(1 << 12)
    a = np.array([7.0])
    addr = mem.bind(a)
    m = Machine([instr("movsd", Mem(base=RAX), xmm(1))], mem)
    m.state.gp["rax"] = addr
    m.state.vec[1][:] = 9.0
    m.run()
    assert m.state.vec[1][0] == 7.0 and m.state.vec[1][1] == 0.0


def test_movsd_reg_to_reg_merges_low_lane():
    m = run([instr("movsd", xmm(0), xmm(1))],
            floats={0: [5.0, 6.0], 1: [1.0, 2.0]})
    assert list(m.state.vec[1][:2]) == [5.0, 2.0]


def test_addsd_only_low_lane():
    m = run([instr("addsd", xmm(0), xmm(1))],
            floats={0: [1.0, 10.0], 1: [2.0, 20.0]})
    assert list(m.state.vec[1][:2]) == [3.0, 20.0]


def test_packed_sse_ops():
    m = run([
        instr("mulpd", xmm(0), xmm(1)),
        instr("addpd", xmm(0), xmm(2)),
    ], floats={0: [2.0, 3.0], 1: [4.0, 5.0], 2: [1.0, 1.0]})
    assert list(m.state.vec[1][:2]) == [8.0, 15.0]
    assert list(m.state.vec[2][:2]) == [3.0, 4.0]


def test_xorpd_zero_idiom():
    m = run([instr("xorpd", xmm(3), xmm(3))], floats={3: [1.0, 2.0]})
    assert list(m.state.vec[3][:2]) == [0.0, 0.0]


def test_shufpd_swap():
    m = run([instr("shufpd", Imm(1), xmm(0), xmm(0))], floats={0: [1.0, 2.0]})
    assert list(m.state.vec[0][:2]) == [2.0, 1.0]


def test_shufpd_combine_semantics():
    # dst[0] = dst[imm&1], dst[1] = src[(imm>>1)&1]
    m = run([instr("shufpd", Imm(2), xmm(1), xmm(0))],
            floats={0: [10.0, 11.0], 1: [20.0, 21.0]})
    assert list(m.state.vec[0][:2]) == [10.0, 21.0]


def test_unpckhpd():
    m = run([instr("unpckhpd", xmm(1), xmm(0))],
            floats={0: [1.0, 2.0], 1: [3.0, 4.0]})
    assert list(m.state.vec[0][:2]) == [2.0, 4.0]


def test_haddpd():
    m = run([instr("haddpd", xmm(1), xmm(0))],
            floats={0: [1.0, 2.0], 1: [10.0, 20.0]})
    assert list(m.state.vec[0][:2]) == [3.0, 30.0]


def test_movddup_from_memory():
    mem = Memory(1 << 12)
    addr = mem.bind(np.array([6.0]))
    m = Machine([instr("movddup", Mem(base=RAX), xmm(2))], mem)
    m.state.gp["rax"] = addr
    m.run()
    assert list(m.state.vec[2][:2]) == [6.0, 6.0]


# -- AVX ------------------------------------------------------------------------

def test_vex_128_write_zeroes_upper_lanes():
    m = run([instr("vaddsd", xmm(0), xmm(1), xmm(2))],
            floats={0: [1.0], 1: [2.0], 2: [9.0, 9.0, 9.0, 9.0]})
    assert m.state.vec[2][0] == 3.0
    assert list(m.state.vec[2][2:]) == [0.0] * 6  # zeroed up to 512 bits


def test_legacy_sse_write_preserves_upper_lanes():
    m = run([instr("addsd", xmm(0), xmm(2))],
            floats={0: [1.0], 2: [2.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0]})
    assert list(m.state.vec[2]) == [3.0] + [8.0] * 7


def test_vbroadcastsd():
    mem = Memory(1 << 12)
    addr = mem.bind(np.array([2.5]))
    m = Machine([instr("vbroadcastsd", Mem(base=RAX), ymm(3))], mem)
    m.state.gp["rax"] = addr
    m.run()
    assert list(m.state.vec[3]) == [2.5] * 4 + [0.0] * 4


def test_vmulpd_vaddpd_256():
    m = run([
        instr("vmulpd", ymm(0), ymm(1), ymm(2)),
        instr("vaddpd", ymm(2), ymm(3), ymm(3)),
    ], floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8], 3: [1, 1, 1, 1]})
    assert list(m.state.vec[3][:4]) == [6.0, 13.0, 22.0, 33.0]


def test_vfmadd231pd():
    m = run([instr("vfmadd231pd", ymm(0), ymm(1), ymm(2))],
            floats={0: [2, 2, 2, 2], 1: [3, 3, 3, 3], 2: [1, 1, 1, 1]})
    assert list(m.state.vec[2][:4]) == [7.0] * 4


def test_fma4_vfmaddpd():
    # AT&T (src3, src2, src1, dst): dst = src1*src2 + src3
    m = run([instr("vfmaddpd", ymm(2), ymm(1), ymm(0), ymm(3))],
            floats={0: [2, 2, 2, 2], 1: [3, 3, 3, 3], 2: [1, 1, 1, 1]})
    assert list(m.state.vec[3][:4]) == [7.0] * 4


def test_vpermilpd_imm5():
    m = run([instr("vpermilpd", Imm(5), ymm(0), ymm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:4]) == [2.0, 1.0, 4.0, 3.0]


def test_vperm2f128_swap_lanes():
    m = run([instr("vperm2f128", Imm(1), ymm(0), ymm(0), ymm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:4]) == [3.0, 4.0, 1.0, 2.0]


def test_vextractf128():
    m = run([instr("vextractf128", Imm(1), ymm(0), xmm(1))],
            floats={0: [1, 2, 3, 4]})
    assert list(m.state.vec[1][:2]) == [3.0, 4.0]


@pytest.mark.parametrize("imm", range(4))
def test_vextractf64x2_from_zmm_zeroes_upper_lanes(imm):
    m = run([instr("vextractf64x2", Imm(imm), zmm(0), xmm(17))],
            floats={0: list(range(1, 9)), 17: [9.0] * 8})
    assert list(m.state.vec[17]) == [2 * imm + 1.0, 2 * imm + 2.0] + [0.0] * 6


def test_vextractf64x2_from_ymm():
    m = run([instr("vextractf64x2", Imm(1), ymm(20), xmm(3))],
            floats={20: list(range(1, 9)), 3: [9.0] * 8})
    assert list(m.state.vec[3]) == [3.0, 4.0] + [0.0] * 6


def test_vextractf64x4_zeroes_upper_lanes():
    m = run([instr("vextractf64x4", Imm(1), zmm(31), ymm(16))],
            floats={31: list(range(1, 9)), 16: [9.0] * 8})
    assert list(m.state.vec[16]) == [5.0, 6.0, 7.0, 8.0] + [0.0] * 4


def test_zmm_fma_uses_all_eight_lanes():
    m = run([instr("vfmadd231pd", zmm(0), zmm(1), zmm(29))],
            floats={0: [2.0] * 8, 1: list(range(8)), 29: [1.0] * 8})
    assert list(m.state.vec[29]) == [2.0 * k + 1.0 for k in range(8)]


def test_vunpckhpd_256():
    m = run([instr("vunpckhpd", ymm(1), ymm(0), ymm(2))],
            floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8]})
    assert list(m.state.vec[2][:4]) == [2.0, 6.0, 4.0, 8.0]


def test_vshufpd_256():
    m = run([instr("vshufpd", Imm(0b0101), ymm(1), ymm(0), ymm(2))],
            floats={0: [1, 2, 3, 4], 1: [5, 6, 7, 8]})
    # per lane-pair: out[0]=a[imm0], out[1]=b[imm1] etc.
    assert list(m.state.vec[2][:4]) == [2.0, 5.0, 4.0, 7.0]


def test_prefetch_is_noop():
    m = run([instr("prefetcht0", Mem(base=RAX))], setup={"rax": Memory.BASE})
    assert m.state.gp["rax"] == Memory.BASE  # no state change, no fault


def test_divsd():
    m = run([instr("divsd", xmm(0), xmm(1))], floats={0: [4.0], 1: [10.0]})
    assert m.state.vec[1][0] == 2.5


_VECTOR_SUFFIXES = ("pd", "sd", "ddup", "f128", "f64x2", "f64x4", "upper")


def _vector_operands(mn):
    """One operand per role: xmm registers 1.., $1 immediates, and a
    memory source where the instruction only takes one."""
    out, reg = [], 1
    for role in INSTR_INFO[mn].roles:
        if role == "I":
            out.append(Imm(1))
        elif mn == "vbroadcastsd" and not out:
            out.append(Mem(base=RAX))
        else:
            out.append(xmm(reg))
            reg += 1
    return out


def _run_from(items, lanes):
    mem = Memory(1 << 12)
    m = Machine(items, mem)
    m.state.gp["rax"] = mem.bind(np.array([0.5]))
    m.state.vec[:] = lanes
    m.run()
    return m.state.vec


def test_every_known_mnemonic_is_executable_or_control():
    """Every vector mnemonic in INSTR_INFO executes, and every legacy op
    with a VEX twin obeys the encoding rule: ``op src, dst`` matches
    ``vop src, dst, dst`` on the low lanes, keeps the upper lanes where
    the VEX-128 form zeroes them."""
    lanes = np.arange(1.0, 257.0).reshape(32, 8)
    vector = sorted(mn for mn in INSTR_INFO if mn.endswith(_VECTOR_SUFFIXES))
    assert len(vector) >= 40
    for mn in vector:
        _run_from([instr(mn, *_vector_operands(mn))], lanes)

    twinned = [mn for mn in vector if "v" + mn in INSTR_INFO]
    assert len(twinned) == 15
    for mn in twinned:
        ops = _vector_operands(mn)
        legacy = instr(mn, *ops)
        if "M" in INSTR_INFO[mn].roles:  # op src, dst -> vop src, dst, dst
            ops = ops + ops[-1:]
        twin = instr("v" + mn, *ops)
        dst = ops[-1].index
        got_legacy = _run_from([legacy], lanes)[dst]
        got_vex = _run_from([twin], lanes)[dst]
        assert list(got_legacy[:2]) == list(got_vex[:2]), mn
        assert list(got_legacy[2:]) == list(lanes[dst][2:]), mn
        assert list(got_vex[2:]) == [0.0] * 6, mn
