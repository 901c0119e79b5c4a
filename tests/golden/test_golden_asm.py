"""Golden-assembly snapshot tests.

Every built-in kernel of ``KERNEL_SOURCES`` at its ``default_config``,
plus a few explicit configurations, is generated under each of the five
ISA mappings (SSE, AVX, FMA3, FMA4, AVX-512) and diffed against a
committed snapshot.  Together the scenarios instantiate every template in the
``OPTIMIZERS`` table — the paper's six (mmCOMP, mmSTORE, mvCOMP and their
unrolled variants) and the sumREDUCE / mvSCALE / mvUnrolledSCALE
extensions — and both vectorization methods of §3.4 (Vdup and Shuf).  Any
change to instruction selection, register allocation, or scheduling
shows up as a reviewable assembly diff instead of a silent behavior
change.

Snapshots live beside this file as ``<scenario>__<arch>.s``.  After an
*intentional* generator change, refresh them with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff.  Local label names are normalized before comparison
(they encode allocation order, not semantics); everything else — mnemonics,
operands, register choices, instruction order — must match exactly.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.blas.kernels import KERNEL_SOURCES
from repro.core.framework import Augem
from repro.core.optimizers import OPTIMIZERS
from repro.transforms.pipeline import OptimizationConfig

from tests.conftest import ALL_ARCH_SPECS

GOLDEN_DIR = Path(__file__).parent

#: scenario -> (kernel family, config, strategy, exported symbol,
#: templates it covers); a ``None`` config / symbol means the kernel's
#: ``default_config`` / C function name
SCENARIOS = {
    "gemm_baseline": (
        "gemm", OptimizationConfig(), "auto", "golden_gemm",
        {"mmCOMP", "mmSTORE"}),
    "gemm_unrolled": (
        "gemm", OptimizationConfig(unroll_jam=(("j", 2), ("i", 4))), "auto",
        "golden_gemm_u",
        {"mmUnrolledCOMP", "mmUnrolledSTORE"}),
    "gemv_baseline": (
        "gemv", OptimizationConfig(), "auto", "golden_gemv", {"mvCOMP"}),
    "axpy_unrolled": (
        "axpy", OptimizationConfig(unroll=(("i", 4),)), "auto",
        "golden_axpy_u", {"mvUnrolledCOMP"}),
    "scal_baseline": (
        "scal", OptimizationConfig(), "auto", None, {"mvSCALE"}),
    # the Shuf method (paper Fig. 9) and its un-permuting store
    "gemm_shuf_method": (
        "gemm_shuf", None, "shuf", None,
        {"mmUnrolledCOMP", "mmUnrolledSTORE"}),
    # every built-in kernel as the library generates it
    "gemm_default": (
        "gemm", None, "auto", None, {"mmUnrolledCOMP", "mmUnrolledSTORE"}),
    "gemm_shuf_default": (
        "gemm_shuf", None, "auto", None,
        {"mmUnrolledCOMP", "mmUnrolledSTORE"}),
    "gemv_default": ("gemv", None, "auto", None, {"mvUnrolledCOMP"}),
    "gemv_n_default": (
        "gemv_n", None, "auto", None,
        {"mmUnrolledCOMP", "sumREDUCE", "mmSTORE"}),
    "axpy_default": ("axpy", None, "auto", None, {"mvUnrolledCOMP"}),
    "dot_default": (
        "dot", None, "auto", None, {"mmUnrolledCOMP", "sumREDUCE"}),
    "scal_default": ("scal", None, "auto", None, {"mvUnrolledSCALE"}),
}

_LABEL = re.compile(r"\.L[A-Za-z0-9_$.]*")


def normalize_asm(text: str) -> str:
    """Rename local labels to appearance order; strip trailing blanks.

    Label *names* encode generation-order counters; the control-flow
    structure they induce is preserved because every occurrence of one
    name maps to the same placeholder.
    """
    mapping: dict = {}

    def rename(match: re.Match) -> str:
        name = match.group(0)
        if name not in mapping:
            mapping[name] = f".LBL{len(mapping)}"
        return mapping[name]

    lines = [_LABEL.sub(rename, line).rstrip()
             for line in text.splitlines()]
    return "\n".join(lines).rstrip() + "\n"


def _snapshot_path(scenario: str, arch_name: str) -> Path:
    return GOLDEN_DIR / f"{scenario}__{arch_name}.s"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("arch", ALL_ARCH_SPECS, ids=lambda a: a.name)
def test_golden_asm(scenario, arch, request):
    kernel, config, strategy, symbol, expected_templates = SCENARIOS[scenario]
    gk = Augem(arch=arch).generate_named(kernel, config=config,
                                         strategy=strategy, name=symbol)

    # the scenario must actually exercise the templates it claims to cover
    missing = expected_templates - set(gk.template_counts)
    assert not missing, (
        f"{scenario} no longer instantiates template(s) {sorted(missing)}; "
        f"got {gk.template_counts}")

    got = normalize_asm(gk.asm_text)
    path = _snapshot_path(scenario, arch.name)
    if request.config.getoption("--update-golden"):
        path.write_text(got)
        return
    assert path.exists(), (
        f"missing golden snapshot {path.name}; run pytest with "
        f"--update-golden to create it")
    want = path.read_text()
    assert got == want, (
        f"generated assembly for {scenario} on {arch.name} deviates from "
        f"{path.name}; if the change is intentional, rerun with "
        f"--update-golden and review the snapshot diff")


def test_every_builtin_kernel_has_a_default_scenario():
    defaults = {kernel for kernel, config, strategy, _, _ in
                SCENARIOS.values() if config is None and strategy == "auto"}
    assert defaults == set(KERNEL_SOURCES)


def test_scenarios_cover_every_template():
    covered = set().union(*(s[-1] for s in SCENARIOS.values()))
    assert covered == set(OPTIMIZERS)


def test_normalize_asm_is_structure_preserving():
    a = ".L_top:\n jmp .L_top\n jne .L_done\n.L_done:\n"
    b = ".L_x:\n jmp .L_x\n jne .L_y\n.L_y:\n"
    c = ".L_x:\n jmp .L_y\n jne .L_y\n.L_y:\n"  # different flow
    assert normalize_asm(a) == normalize_asm(b)
    assert normalize_asm(a) != normalize_asm(c)


def test_generation_is_deterministic():
    kernel, config, _, symbol, _ = SCENARIOS["gemm_baseline"]
    first = Augem(arch=ALL_ARCH_SPECS[0]).generate_named(
        kernel, config=config, name=symbol).asm_text
    second = Augem(arch=ALL_ARCH_SPECS[0]).generate_named(
        kernel, config=config, name=symbol).asm_text
    assert first == second


def test_shuf_method_falls_back_to_vdup_at_eight_lanes():
    """``vectorize`` applies the Shuf method to n in {2, 4} only; with the
    8-lane ``skylakex`` vectors the forced Shuf scenario is a Vdup kernel
    (broadcast loads, no in-register shuffles)."""
    from repro.isa.arch import SKYLAKEX

    gk = Augem(arch=SKYLAKEX).generate_named("gemm_shuf", strategy="shuf")
    plans = {rp.strategy for rp in gk.plan.region_plans.values()}
    assert "shuf" not in plans and "vdup" in plans
    assert "vbroadcastsd" in gk.asm_text
    assert "vpermilpd" not in gk.asm_text


def test_skylakex_snapshots_use_evex_encodable_instructions_only():
    """Registers 16-31 encode only as EVEX: no 512-bit kernel may select
    an instruction that has no EVEX form."""
    no_evex = ("vextractf128", "vperm2f128", "vblendpd", "vinsertf128",
               "vhaddpd")
    for path in GOLDEN_DIR.glob("*__skylakex.s"):
        text = path.read_text()
        assert not [mn for mn in no_evex if mn in text], path.name
