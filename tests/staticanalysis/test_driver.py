"""Tests for the analysis driver: context memoization, caching,
telemetry integration, and benchmark-level analysis."""

import dataclasses
import os

from repro import telemetry
from repro.ir import KernelBuilder, Language, read, write
from repro.machine import a64fx, xeon
from repro.staticanalysis import (
    AnalysisContext,
    Severity,
    analyze_benchmark,
    analyze_kernel,
    max_severity,
    select_rules,
)
from repro.staticanalysis.driver import (
    FINDINGS_COUNTER_PREFIX,
    AnalysisCache,
    analyze_benchmark_cached,
    analyze_kernel_cached,
    worst_severity,
)
from repro.suites import get_benchmark
from repro.telemetry import SPAN_LINT, Telemetry


def racy_kernel(name="racy", n=64):
    b = KernelBuilder(name, Language.C)
    b.array("a", (n,))
    b.nest(
        [("i", 1, n)],
        [b.stmt(write("a", "i"), read("a", "i-1"), fadd=1)],
        parallel=("i",),
    )
    return b.build()


class TestAnalyzeKernel:
    def test_findings_bound_to_kernel(self):
        findings = analyze_kernel(racy_kernel())
        assert findings
        assert all(f.kernel == "racy" for f in findings)

    def test_rule_filter(self):
        findings = analyze_kernel(
            racy_kernel(), rules=select_rules(["RACE001"])
        )
        assert findings
        assert {f.rule_id for f in findings} == {"RACE001"}

    def test_shared_context_memoizes_deps(self, monkeypatch):
        from repro.ir import dependence

        ctx = AnalysisContext()
        kernel = racy_kernel()
        first = analyze_kernel(kernel, ctx=ctx)
        facts = ctx.facts(kernel)

        def no_reanalysis(nest):
            raise AssertionError("dependence set analysed twice")

        monkeypatch.setattr(dependence, "_analyze_dependences", no_reanalysis)
        # Second walks reuse the same dependence sets (one process memo),
        # with the same context or a fresh one.
        assert analyze_kernel(kernel, ctx=ctx) == first
        assert analyze_kernel(kernel) == first
        for nf in facts.nests:
            assert nf.deps is dependence.nest_dependences(nf.nest)

    def test_machine_parameter(self):
        # Both machine models must produce findings for the racy kernel.
        assert analyze_kernel(racy_kernel(), machine=a64fx())
        assert analyze_kernel(racy_kernel(), machine=xeon())


class TestCachedEntryPoints:
    def test_kernel_cache_identity(self):
        kernel = racy_kernel()
        machine = a64fx()
        first = analyze_kernel_cached(kernel, machine)
        assert analyze_kernel_cached(kernel, machine) is first

    def test_kernel_cache_keyed_by_machine(self):
        kernel = racy_kernel()
        first = analyze_kernel_cached(kernel, a64fx())
        other = analyze_kernel_cached(kernel, xeon())
        assert first is not other

    def test_benchmark_cache_identity(self):
        bench = get_benchmark("polybench.2mm")
        machine = a64fx()
        first = analyze_benchmark_cached(bench, machine)
        assert analyze_benchmark_cached(bench, machine) is first
        assert any(f.rule_id == "OPT010" for f in first)

    def test_no_duplicates_on_warm_memo_reemission(self):
        """Regression: re-analyzing a benchmark through the memoized
        entry point used to re-emit each shared kernel's findings once
        per arrival, doubling the report on warm caches."""
        bench = get_benchmark("polybench.2mm")
        machine = a64fx()
        cold = analyze_benchmark_cached(bench, machine)
        warm = analyze_benchmark_cached(bench, machine)
        assert warm == cold
        assert len(set(warm)) == len(warm), "duplicate findings re-emitted"

    def test_kernel_memo_is_bounded(self, monkeypatch):
        """Regression: the memo kept (and pinned) every kernel object it
        was ever given, so a long-lived process compiling fresh kernel
        objects grew it without limit."""
        from repro.staticanalysis import driver as driver_mod

        analyzed = []

        def fake_analyze(kernel, **kwargs):
            analyzed.append(kernel)
            return ()

        monkeypatch.setattr(driver_mod, "analyze_kernel", fake_analyze)
        machine = a64fx()
        copies = [dataclasses.replace(racy_kernel()) for _ in range(3000)]
        for kernel in copies:
            analyze_kernel_cached(kernel, machine)
        assert len(driver_mod._KERNEL_DIAGNOSTICS) <= 2048
        assert analyze_kernel_cached(copies[-1], machine) == ()
        assert len(analyzed) == len(copies)  # the newest entry still hits

    def test_benchmark_memo_is_bounded(self):
        from repro.staticanalysis import driver as driver_mod

        base = get_benchmark("polybench.2mm")
        machine = a64fx()
        first = analyze_benchmark_cached(base, machine)
        for i in range(1500):
            clone = dataclasses.replace(base, name=f"clone{i}")
            assert analyze_benchmark_cached(clone, machine) == first
        assert len(driver_mod._BENCH_DIAGNOSTICS) <= 1024


class TestAnalysisCache:
    def test_persistent_round_trip(self, tmp_path):
        kernel = racy_kernel()
        machine = a64fx()
        cache = AnalysisCache(tmp_path / "analysis")
        assert cache.get(kernel, machine) is None
        diags = analyze_kernel(kernel, machine=machine)
        cache.put(kernel, machine, diags)
        assert cache.get(kernel, machine) == diags

    def test_warm_disk_cache_does_not_duplicate(self, tmp_path):
        """Regression companion to the memo test above, across the
        persistent layer: a disk hit must re-emit the findings exactly
        once."""
        bench = get_benchmark("polybench.3mm")
        machine = a64fx()
        # Every run below must simulate a fresh process: earlier tests in
        # the session may already have memoized this benchmark, and a memo
        # hit would bypass the disk cache entirely.
        from repro.staticanalysis import driver as driver_mod

        driver_mod._BENCH_DIAGNOSTICS.clear()
        driver_mod._KERNEL_DIAGNOSTICS.clear()
        cold_cache = AnalysisCache(tmp_path / "analysis")
        cold = analyze_benchmark_cached(bench, machine, cold_cache)
        driver_mod._BENCH_DIAGNOSTICS.clear()
        driver_mod._KERNEL_DIAGNOSTICS.clear()
        warm_cache = AnalysisCache(tmp_path / "analysis")
        warm = analyze_benchmark_cached(bench, machine, warm_cache)
        assert warm == cold
        assert len(set(warm)) == len(warm)
        assert warm_cache.hits > 0 and warm_cache.misses == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        kernel = racy_kernel()
        machine = a64fx()
        cache = AnalysisCache(tmp_path / "analysis")
        diags = analyze_kernel(kernel, machine=machine)
        cache.put(kernel, machine, diags)
        for entry in (tmp_path / "analysis").rglob("*"):
            if entry.is_file():
                entry.write_text("{corrupt")
        assert cache.get(kernel, machine) is None

    def test_interleaved_puts_of_one_key(self, tmp_path, monkeypatch):
        """Two writers of one key (two shards linting into one cache
        dir) each write their own temp file: neither write fails, and
        the entry left behind is whole."""
        kernel = racy_kernel()
        machine = a64fx()
        cache = AnalysisCache(tmp_path / "analysis")
        diags = analyze_kernel(kernel, machine=machine)
        real_replace = os.replace
        renames = []

        def interleaved(src, dst):
            renames.append(dst)
            if len(renames) == 1:
                # The second writer runs between the first one's write
                # and its rename.
                cache.put(kernel, machine, diags)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        tel = Telemetry()
        with telemetry.active(tel):
            cache.put(kernel, machine, diags)
        monkeypatch.undo()
        assert len(renames) == 2
        assert tel.metrics.counter_value("analysis_cache.write_error") == 0
        assert len(list((tmp_path / "analysis").iterdir())) == 1
        assert AnalysisCache(tmp_path / "analysis").get(kernel, machine) == diags

    def test_keyed_by_machine(self, tmp_path):
        kernel = racy_kernel()
        cache = AnalysisCache(tmp_path / "analysis")
        cache.put(kernel, a64fx(), analyze_kernel(kernel, machine=a64fx()))
        assert cache.get(kernel, xeon()) is None


class TestAnalyzeBenchmark:
    def test_2mm_flags_interchange(self):
        findings = analyze_benchmark(get_benchmark("polybench.2mm"))
        opt = [f for f in findings if f.rule_id == "OPT010"]
        assert opt, "the paper's 2mm interchange anomaly must be flagged"
        assert all("icc does, fcc does not" in f.message for f in opt)

    def test_3mm_flags_interchange(self):
        findings = analyze_benchmark(get_benchmark("polybench.3mm"))
        assert any(f.rule_id == "OPT010" for f in findings)


class TestTelemetry:
    def test_span_and_counters(self):
        recorder = Telemetry()
        with telemetry.active(recorder):
            analyze_kernel(racy_kernel())
        spans = [s for s in recorder.spans if s.name == SPAN_LINT]
        assert spans and spans[0].attrs["kernel"] == "racy"
        counters = recorder.metrics.snapshot()["counters"]
        race_counter = FINDINGS_COUNTER_PREFIX + "RACE001"
        assert counters.get(race_counter, 0) >= 1


class TestWorstSeverity:
    def test_matches_max_severity(self):
        findings = analyze_kernel(racy_kernel())
        assert worst_severity(findings) is max_severity(findings)
        assert worst_severity(findings) is Severity.ERROR
        assert worst_severity(()) is None
