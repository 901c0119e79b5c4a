"""Register-file and ABI tests."""

import pytest

from repro.isa.registers import (
    ALLOCATABLE_GP,
    GP,
    RSP,
    SCRATCH_GP,
    Register,
    SysVABI,
    vec,
    xmm,
    ymm,
    zmm,
)


def test_register_str_att_syntax():
    assert str(GP["rax"]) == "%rax"
    assert str(xmm(3)) == "%xmm3"


def test_vector_index_shared_between_widths():
    assert xmm(5).index == 5
    assert ymm(5).index == 5
    assert zmm(5).index == 5
    assert xmm(5).as_width(32) == ymm(5)
    assert ymm(7).xmm == xmm(7)
    assert xmm(21).zmm == zmm(21) and zmm(21).ymm == ymm(21)


def test_every_width_has_32_registers():
    for width, make in ((16, xmm), (32, ymm), (64, zmm)):
        assert [make(i).name for i in (0, 16, 31)] == [
            f"{make(0).name[:3]}{i}" for i in (0, 16, 31)]
        assert vec(31, width) == make(31)
        with pytest.raises(ValueError):
            vec(32, width)


def test_as_width_rejects_gp():
    with pytest.raises(ValueError):
        GP["rax"].as_width(32)


@pytest.mark.parametrize("width", [8, 128, 0])
def test_as_width_rejects_unknown_width(width):
    with pytest.raises(ValueError, match="unsupported vector width"):
        xmm(3).as_width(width)
    with pytest.raises(ValueError, match="unsupported vector width"):
        ymm(3).as_width(width)


def test_as_width_round_trips_known_widths():
    for width, reg in ((16, xmm(3)), (32, ymm(3)), (64, zmm(3))):
        assert xmm(3).as_width(width) == reg
        assert ymm(3).as_width(width) == reg
        assert zmm(3).as_width(width) == reg
        assert reg.width == width


def test_vec_constructor():
    assert vec(2, 16) == xmm(2)
    assert vec(2, 32) == ymm(2)
    assert vec(2, 64) == zmm(2)
    with pytest.raises(ValueError):
        vec(2, 128)


def test_allocatable_excludes_scratch_and_rsp():
    names = {r.name for r in ALLOCATABLE_GP}
    assert "rsp" not in names and "rax" not in names and "r11" not in names
    assert len(ALLOCATABLE_GP) == 13


def test_scratch_registers():
    assert {r.name for r in SCRATCH_GP} == {"rax", "r11"}


def test_callee_saved_classification():
    assert SysVABI.is_callee_saved(GP["rbx"])
    assert SysVABI.is_callee_saved(GP["r12"])
    assert not SysVABI.is_callee_saved(GP["rdi"])
    assert not SysVABI.is_callee_saved(xmm(0))


def test_classify_args_int_order():
    locs = SysVABI.classify_args(["int"] * 6)
    assert [r.name for r in locs] == ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]


def test_classify_args_mixed():
    locs = SysVABI.classify_args(["int", "float", "int"])
    assert locs[0].name == "rdi"
    assert locs[1] == xmm(0)
    assert locs[2].name == "rsi"


def test_classify_args_seventh_int_on_stack():
    locs = SysVABI.classify_args(["int"] * 8)
    assert locs[6] == 8 and locs[7] == 16  # entry-rsp relative offsets


def test_classify_args_float_overflow_to_stack():
    locs = SysVABI.classify_args(["float"] * 9)
    assert locs[8] == 8
