"""Template Identifier tests (paper §2.2, §4.1.2)."""

import pytest

from repro.blas.kernels import (
    AXPY_SIMPLE_C,
    DOT_SIMPLE_C,
    GEMM_SIMPLE_C,
    GEMV_SIMPLE_C,
)
from repro.core.identifier import identify_templates, match_sum_reduce
from repro.poet import cast as C
from repro.poet.parser import parse_function, parse_stmt
from repro.transforms.pipeline import OptimizationConfig, optimize_c_kernel


def tagged(src, cfg):
    fn = optimize_c_kernel(src, cfg)
    return identify_templates(fn)


def counts(regions):
    out = {}
    for r in regions:
        out[r.template] = out.get(r.template, 0) + 1
    return out


def test_gemm_2x2_matches_paper_fig14():
    """Paper §4.1.2: four mmCOMPs merged into one mmUnrolledCOMP; four
    mmSTOREs divided into two mmUnrolledSTOREs (one per C pointer)."""
    fn, regions = tagged(GEMM_SIMPLE_C,
                         OptimizationConfig(unroll_jam=(("j", 2), ("i", 2))))
    c = counts(regions)
    assert c == {"mmUnrolledCOMP": 1, "mmUnrolledSTORE": 2}
    comp = next(r for r in regions if r.template == "mmUnrolledCOMP")
    payload = comp.binding["payload"]
    assert payload.kind == "grid"
    assert (payload.n1, payload.n2) == (2, 2)
    assert payload.a_contiguous  # A offsets 0,1 of one pointer
    assert not payload.b_contiguous  # B lanes are two distinct pointers


def test_gemm_unrolled_l_produces_one_grid_per_copy():
    cfg = OptimizationConfig(unroll_jam=(("j", 2), ("i", 2)),
                             unroll=(("l", 2),))
    fn, regions = tagged(GEMM_SIMPLE_C, cfg)
    c = counts(regions)
    assert c["mmUnrolledCOMP"] == 2  # accumulators repeat per l copy


def test_gemm_no_unroll_single_mm_comp():
    fn, regions = tagged(GEMM_SIMPLE_C, OptimizationConfig())
    c = counts(regions)
    assert c.get("mmCOMP") == 1
    assert c.get("mmSTORE") == 1


def test_store_groups_sorted_by_offset():
    fn, regions = tagged(GEMM_SIMPLE_C,
                         OptimizationConfig(unroll_jam=(("j", 2), ("i", 4))))
    for r in regions:
        if r.template == "mmUnrolledSTORE":
            offs = [s.c_off for s in r.binding["payload"].stores]
            assert offs == sorted(offs)
            assert offs == list(range(offs[0], offs[0] + len(offs)))


def test_gemv_unrolled_mv_comp():
    fn, regions = tagged(GEMV_SIMPLE_C, OptimizationConfig(unroll=(("j", 4),)))
    c = counts(regions)
    assert c == {"mvUnrolledCOMP": 1}
    payload = next(iter(regions)).binding["payload"]
    assert len(payload.comps) == 4
    assert payload.scal == "scal"


def test_gemv_single_mv_comp():
    fn, regions = tagged(GEMV_SIMPLE_C, OptimizationConfig())
    assert counts(regions) == {"mvCOMP": 1}


def test_axpy_same_templates_as_gemv():
    """Paper §4.3: AXPY is driven by the same templates as GEMV."""
    fn, regions = tagged(AXPY_SIMPLE_C, OptimizationConfig(unroll=(("i", 4),)))
    assert counts(regions) == {"mvUnrolledCOMP": 1}


def test_dot_paired_structure_and_reduce():
    """Paper §4.4: DOT is driven by the same templates as GEMM."""
    cfg = OptimizationConfig(unroll=(("i", 4),), split=(("i", "res", 4),))
    fn, regions = tagged(DOT_SIMPLE_C, cfg)
    c = counts(regions)
    assert c["mmUnrolledCOMP"] == 1
    assert c["sumREDUCE"] == 1
    payload = next(r for r in regions
                   if r.template == "mmUnrolledCOMP").binding["payload"]
    assert payload.kind == "paired"
    assert payload.a_contiguous and payload.b_contiguous


def test_regions_replace_statements_in_tree():
    fn, regions = tagged(GEMM_SIMPLE_C,
                         OptimizationConfig(unroll_jam=(("j", 2), ("i", 2))))
    region_nodes = [n for n in fn.body.walk() if isinstance(n, C.TaggedRegion)]
    assert len(region_nodes) == len(regions)


def test_non_template_code_untouched():
    fn, regions = tagged(GEMM_SIMPLE_C,
                         OptimizationConfig(unroll_jam=(("j", 2), ("i", 2))))
    # pointer updates must survive as ordinary statements in the l loop
    loops = [n for n in fn.body.walk() if isinstance(n, C.For)]
    l_loop = loops[-1]
    incs = [s for s in l_loop.body.stmts
            if isinstance(s, C.Assign) and s.op == "+="]
    assert incs, "pointer increments were swallowed by a region"


def test_sum_reduce_matcher():
    assert match_sum_reduce(parse_stmt("res += a + b + c;")) is not None
    assert match_sum_reduce(parse_stmt("res += a;")) is None
    assert match_sum_reduce(parse_stmt("res = a + b;")) is None
    assert match_sum_reduce(parse_stmt("res += a * b;")) is None
    m = match_sum_reduce(parse_stmt("res += p0 + p1 + p2 + p3;"))
    assert m.dst == "res" and m.parts == ["p0", "p1", "p2", "p3"]


def _store_runs(fn):
    """Every maximal run of mmSTOREs in ``fn``: (matched stores, raw stmts)."""
    from repro.core.templates import match_mm_store

    for stmts in [n.stmts for n in fn.walk() if isinstance(n, C.Block)]:
        i = 0
        while i < len(stmts):
            run = []
            j = i
            while (st := match_mm_store(stmts, j)) is not None:
                run.append(st)
                j += 3
            if run:
                yield run, stmts[i:j]
                i = j
            else:
                i += 1


def _stmts_of_stores_by_rematching(group, raw):
    """The grouping's definition: for each store, the first 3-statement
    window of the run that matches it (re-matched per store)."""
    from repro.core.templates import match_mm_store

    out = []
    for store in group.stores:
        for k in range(0, len(raw), 3):
            cand = match_mm_store(raw[k:k + 3], 0)
            if cand is not None and (cand.c_ptr, cand.c_off, cand.res) == (
                    store.c_ptr, store.c_off, store.res):
                out.extend(raw[k:k + 3])
                break
    return out


@pytest.mark.parametrize("jam", [(2, 2), (4, 12), (8, 24)])
def test_store_grouping_matches_rematching_definition(jam):
    """Keying the run's windows once gives the statements per group that
    re-matching every window for every store gives (including a run in
    which one store appears twice)."""
    from repro.core.identifier import TemplateIdentifier, _group_stores

    nu, mu = jam
    fn = optimize_c_kernel(GEMM_SIMPLE_C, OptimizationConfig(
        unroll_jam=(("j", nu), ("i", mu))))
    runs = list(_store_runs(fn))
    assert sum(len(run) for run, _ in runs) == nu * mu
    run, raw = runs[0]
    runs.append((run + run[:1], raw + raw[:3]))  # a repeated store
    for run, raw in runs:
        for group in _group_stores(run):
            got = TemplateIdentifier._stmts_of_stores(group, run, raw)
            want = _stmts_of_stores_by_rematching(group, raw)
            assert [id(s) for s in got] == [id(s) for s in want]
            assert len(got) == 3 * len(group.stores)
