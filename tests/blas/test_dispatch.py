"""Dispatch-chain tests: capability ordering, ISA-probe demotion,
admission rejection, and the quarantine consult."""

import numpy as np
import pytest

from repro.backend.cache import get_cache, reset_cache
from repro.backend.faults import FaultPlan, clear_fault_plan, install_fault_plan
from repro.blas.dispatch import (
    REFERENCE_TIER,
    DispatchChain,
    KernelRejected,
    capability_chain,
    default_chain,
    reset_dispatch_state,
    tier_verdict,
    ulp_error,
)
from repro.blas.level1 import make_axpy
from repro.blas.reference import ReferenceAxpyDriver
from repro.core.framework import Augem, quarantine_key
from repro.isa.arch import (
    FORCE_ARCH_ENV,
    GENERIC_SSE,
    HASWELL,
    PILEDRIVER,
    SANDYBRIDGE,
    SKYLAKEX,
    detect_host,
    reset_host_cache,
)

from tests.conftest import needs_cc


@pytest.fixture(autouse=True)
def _clean_dispatch():
    clear_fault_plan()
    reset_dispatch_state()
    reset_host_cache()
    yield
    clear_fault_plan()
    reset_dispatch_state()
    reset_host_cache()
    reset_cache()


def _axpy_builder(tier, loader):
    return make_axpy(arch=tier.arch, loader=loader)


def _check_axpy(driver):
    x = np.arange(1.0, 20.0)
    y = np.full(19, 2.0)
    driver(1.5, x, y)
    assert np.allclose(y, 2.0 + 1.5 * x)


# -- chain shape ------------------------------------------------------------

@pytest.mark.parametrize("top,names", [
    (SKYLAKEX, ["skylakex", "haswell", "sandybridge", "generic_sse",
                "reference"]),
    (HASWELL, ["haswell", "sandybridge", "generic_sse", "reference"]),
    (PILEDRIVER, ["piledriver", "sandybridge", "generic_sse", "reference"]),
    (SANDYBRIDGE, ["sandybridge", "generic_sse", "reference"]),
    (GENERIC_SSE, ["generic_sse", "reference"]),
], ids=lambda v: v.name if hasattr(v, "name") else "")
def test_capability_chain_orders_by_rank(top, names):
    chain = capability_chain(top)
    assert [t.name for t in chain] == names
    assert chain[-1] is REFERENCE_TIER
    assert chain[-1].is_reference and chain[-1].arch is None
    assert all(not t.is_reference for t in chain[:-1])


def test_default_chain_tracks_host():
    chain = default_chain()
    assert chain[0].arch is detect_host()
    assert chain[-1] is REFERENCE_TIER


def test_default_chain_forced_to_reference(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    assert default_chain() == [REFERENCE_TIER]


def test_tier_describe_mentions_the_isa():
    assert "numpy" in REFERENCE_TIER.describe()
    assert "AVX" in capability_chain(SANDYBRIDGE)[0].describe()


def test_reference_tier_verdict_is_always_ok():
    ok, _ = tier_verdict(REFERENCE_TIER)
    assert ok


# -- verdict memoization under concurrency ----------------------------------

def test_probe_verdict_memoized_under_concurrent_threads(monkeypatch):
    """Threads racing the first ``verify_tier`` run the sandboxed probe
    exactly once; everyone observes the winner's memoized verdict."""
    import threading

    calls = []
    release = threading.Event()

    def fake_probe(self, tier):
        calls.append(tier.arch.name)
        # hold the verdict lock long enough that every racer is queued
        # behind it before the verdict lands
        release.wait(timeout=5.0)
        return True, "ok"

    monkeypatch.setattr(DispatchChain, "_probe_tier", fake_probe)
    chain = DispatchChain(top=GENERIC_SSE)
    tier = chain.tiers[0]
    assert not tier.is_reference

    n = 8
    gate = threading.Barrier(n)
    results = [None] * n

    def racer(i):
        gate.wait(timeout=5.0)
        if i == 0:
            # let the pack pile onto the lock, then let the probe finish
            threading.Timer(0.05, release.set).start()
        results[i] = chain.verify_tier(tier)

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads), "verify_tier deadlocked"

    assert calls == ["generic_sse"], "probe must execute exactly once"
    assert results == [True] * n
    ok, detail = tier_verdict(tier)
    assert ok and detail == "ok"
    # later callers hit the memo without touching the probe path
    assert chain.verify_tier(tier)
    assert len(calls) == 1


def test_concurrent_probes_of_distinct_tiers_each_run_once(monkeypatch):
    import threading

    calls = []

    def fake_probe(self, tier):
        calls.append(tier.arch.name)
        return True, "ok"

    monkeypatch.setattr(DispatchChain, "_probe_tier", fake_probe)
    chain = DispatchChain(top=SANDYBRIDGE)
    native = [t for t in chain.tiers if not t.is_reference]
    assert len(native) >= 2

    n = 12
    gate = threading.Barrier(n)

    def racer(i):
        gate.wait(timeout=5.0)
        assert chain.verify_tier(native[i % len(native)])

    threads = [threading.Thread(target=racer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    assert sorted(calls) == sorted(t.arch.name for t in native)


# -- ulp_error --------------------------------------------------------------

def test_ulp_error_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert ulp_error(a, a) == 0.0
    assert ulp_error(a, np.array([1.0, 2.0])) == np.inf
    assert ulp_error(np.zeros(0), np.zeros(0)) == 0.0
    bumped = a.copy()
    bumped[1] = np.nextafter(bumped[1], np.inf)
    assert 0.0 < ulp_error(bumped, a) <= 1.0


# -- building down the chain ------------------------------------------------

def test_reference_only_chain_needs_no_toolchain(monkeypatch):
    monkeypatch.setenv(FORCE_ARCH_ENV, "reference")
    reset_host_cache()
    chain = DispatchChain()
    assert chain.tiers == [REFERENCE_TIER]

    def exploding_builder(tier, loader):
        raise AssertionError("native builder must not run on reference")

    driver, info = chain.build_routine("axpy", exploding_builder)
    assert isinstance(driver, ReferenceAxpyDriver)
    assert info.tier == "reference" and not info.demoted
    assert "axpy" in info.describe()
    _check_axpy(driver)


@needs_cc
def test_native_tier_admits_and_serves():
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.tier == chain.top.name
    assert not info.demoted and info.attempts == []
    ok, detail = tier_verdict(chain.top)
    assert ok and detail == "ok"
    _check_axpy(driver)


@needs_cc
def test_isa_probe_crash_demotes_to_reference():
    # every probe kernel is named isa_probe_<arch>, so this faults the
    # probe of every native tier and the chain must land on reference
    install_fault_plan(FaultPlan.parse("segv@isa_probe"))
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.tier == "reference" and info.demoted
    assert len(info.attempts) == len(chain.tiers) - 1
    assert all("ISA probe failed" in a for a in info.attempts)
    ok, _ = tier_verdict(chain.top)
    assert not ok
    _check_axpy(driver)


@needs_cc
def test_admission_failure_demotes_one_tier():
    # fault only the first routine kernel (the probe kernels have a
    # different symbol); an early-ret axpy computes nothing, so the
    # admission probe sees garbage and must reject the top tier
    install_fault_plan(FaultPlan.parse("wrong@daxpy_kernel:1"))
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.demoted
    assert info.tier == chain.tiers[1].name
    assert len(info.attempts) == 1
    assert "failed admission" in info.attempts[0]
    _check_axpy(driver)


@needs_cc
def test_quarantined_kernel_is_never_loaded(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_cache()
    top = detect_host()
    gk = Augem(arch=top).generate_named("axpy")
    get_cache().store_quarantine(
        quarantine_key("axpy", top, gk),
        {"kernel": "axpy", "arch": top.name, "error": "synthetic quarantine"})
    chain = DispatchChain()
    driver, info = chain.build_routine("axpy", _axpy_builder)
    assert info.demoted
    assert info.tier == chain.tiers[1].name
    assert "quarantined" in info.attempts[0]
    _check_axpy(driver)
