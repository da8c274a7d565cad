"""The pluggable execution-backend subsystem.

Covers the registry (names, auto selection, the single
unknown-engine error, graceful degradation without NumPy) and the
``"block"`` backend's equivalence contract: identical distinct reports
*and* ActivityStats against the reference simulator on every pattern
shape, chunking, and all five synthetic suites.
"""

import os
import platform
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.engine.block as block_engine
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.backends import (
    Backend,
    BackendUnavailable,
    available_backends,
    backend_names,
    engine_choices,
    get_backend,
    register_backend,
    resolve_backend,
    validated_backend_names,
)
from repro.engine.backends.registry import _BACKENDS
from repro.engine.block import BlockScanner
from repro.engine.scanner import StreamScanner
from repro.engine.tables import compile_tables
from repro.hardware.simulator import NetworkSimulator
from repro.matching import RulesetMatcher
from repro.workloads.inputs import plant_matches, stream_for_style
from repro.workloads.synth import (
    clamav_like,
    protomata_like,
    snort_like,
    spamassassin_like,
    suricata_like,
)
from tests.helpers import planted_snort40

MODULE_FREE_RULES = [("lit", r"abc"), ("alt", r"(cat|dog)"), ("cls", r"x[yz]w")]

#: the block backend is optional; everything else must pass without it
needs_numpy = pytest.mark.skipif(
    block_engine.numpy_or_none() is None,
    reason="numpy not installed (block backend unavailable)",
)


def _tables(pattern):
    return compile_tables(compile_pattern(pattern, report_id="p").network)


class TestRegistry:
    def test_builtins_registered(self):
        names = backend_names()
        assert names[:3] == ["stream", "block", "reference"]

    def test_aliases_resolve(self):
        # the registry has no alias layer: only registered names resolve
        # (the historical "table" spelling is gone)
        with pytest.raises(ValueError, match="available engines"):
            get_backend("table")

    def test_engine_choices_cover_auto_names_aliases(self):
        choices = engine_choices()
        assert choices[0] == "auto"
        for name in ("stream", "block", "reference"):
            assert name in choices

    def test_unknown_name_error_lists_engines(self):
        with pytest.raises(ValueError, match="available engines: auto, stream"):
            get_backend("quantum")
        with pytest.raises(ValueError, match="available engines"):
            resolve_backend("quantum")

    def test_auto_is_not_a_backend(self):
        with pytest.raises(ValueError, match="unknown engine 'auto'"):
            get_backend("auto")

    def test_register_conflict_rejected(self):
        class Dup(Backend):
            name = "stream"

            def make_scanner(self, tables):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Dup())

    def test_register_and_replace_custom_backend(self):
        class Custom(Backend):
            name = "custom-test"
            description = "test double"

            def make_scanner(self, tables):
                return StreamScanner(tables)

        try:
            register_backend(Custom())
            assert "custom-test" in engine_choices()
            register_backend(Custom(), replace=True)  # idempotent override
            tables = _tables("ab")
            scanner = resolve_backend("custom-test", tables).make_scanner(tables)
            assert scanner.scan(b"xab") == {(3, "p")}
        finally:
            _BACKENDS.pop("custom-test", None)

    @needs_numpy
    def test_auto_picks_block_for_module_free(self):
        tables = RulesetMatcher(MODULE_FREE_RULES).tables
        assert resolve_backend("auto", tables).name == "block"

    @needs_numpy
    def test_auto_picks_block_for_vectorizable_modules(self):
        # bounded repeats compile to counter/bit-vector modules that
        # now run inside the vector sweep, so auto prefers block
        tables = RulesetMatcher([("ctr", r"[^a]a{3,9}")]).tables
        assert tables.n_modules > 0
        assert resolve_backend("auto", tables).name == "block"

    def test_auto_picks_stream_for_cyclic_module_wiring(self):
        # a multi-STE counter body defeats in-sweep module execution:
        # the sweep analysis rejects the tables, so stream wins auto
        tables = RulesetMatcher([("loop", r"x(ab){2,3}y")]).tables
        assert tables.n_modules > 0
        assert resolve_backend("auto", tables).name == "stream"

    def test_auto_picks_stream_for_cyclic_ste_graph(self):
        tables = _tables(r"(ab)+c")
        assert tables.n_modules == 0
        assert resolve_backend("auto", tables).name == "stream"

    def test_auto_never_picks_reference(self):
        for rules in (MODULE_FREE_RULES, [("ctr", r"[^a]a{3,9}")]):
            assert resolve_backend("auto", RulesetMatcher(rules).tables).name != "reference"

    def test_validated_backend_names(self):
        tables = _tables("abc")
        names = validated_backend_names(tables)
        assert "stream" in names and "reference" in names
        tables.network = None
        assert "reference" not in validated_backend_names(tables)


class TestNumpyDegradation:
    """The block backend must degrade, not explode, without NumPy."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(block_engine, "_np", None)
        monkeypatch.setattr(block_engine, "_NUMPY_ERROR", "simulated import failure")

    def test_reported_unavailable_with_reason(self, no_numpy):
        info = {i.name: i for i in available_backends()}["block"]
        assert not info.available
        assert "simulated import failure" in info.unavailable_reason

    def test_explicit_block_raises_value_error(self, no_numpy):
        tables = _tables("abc")
        with pytest.raises(BackendUnavailable, match="simulated import failure"):
            resolve_backend("block", tables)
        assert issubclass(BackendUnavailable, ValueError)

    def test_auto_degrades_to_stream(self, no_numpy):
        tables = _tables("abc")
        assert resolve_backend("auto", tables).name == "stream"

    def test_module_rules_degrade_to_stream(self, no_numpy):
        """Counter/bit-vector rules prefer block when numpy exists;
        without it they must quietly serve on the interpreter."""
        matcher = RulesetMatcher([("ctr", r"[^a]a{3,9}"), ("gap", r"b.{2,4}c")])
        assert matcher.tables.n_modules > 0
        assert resolve_backend("auto", matcher.tables).name == "stream"
        result = matcher.scan(b"xaaaa b12c")
        assert set(result.matched_rules()) == {"ctr", "gap"}

    def test_scanner_constructor_raises(self, no_numpy):
        with pytest.raises(RuntimeError, match="requires numpy"):
            BlockScanner(_tables("abc"))

    def test_matcher_scan_still_works(self, no_numpy):
        matcher = RulesetMatcher(MODULE_FREE_RULES)  # engine="auto"
        assert matcher.scan(b"zabcz").matches == {"lit": [4]}
        assert "block" not in matcher.validated_backends

    def test_matcher_ctor_fails_fast_on_unavailable_engine(self, no_numpy):
        """engine='block' without numpy must raise before the compile,
        not after seconds of wasted work at scan time."""
        with pytest.raises(BackendUnavailable, match="simulated import failure"):
            RulesetMatcher(MODULE_FREE_RULES, engine="block")

    def test_cli_scan_reports_clean_error(self, no_numpy, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "rules.txt"
        rules.write_text("hit\tabc\n")
        data = tmp_path / "data.bin"
        data.write_bytes(b"xxabcxx")
        code = main(
            ["scan", "--rules", str(rules), "--input", str(data), "--engine", "block"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unavailable" in err


class TestReferenceBackend:
    def test_streams_chunk_by_chunk(self):
        tables = _tables(r"ab{2,4}c")
        scanner = resolve_backend("reference", tables).make_scanner(tables)
        new = []
        for chunk in (b"xab", b"bc", b"abbbbc"):
            new.extend(scanner.feed(chunk))
        scanner.finish()
        assert scanner.reports == StreamScanner(tables).scan(b"xabbcabbbbc")
        assert set(new) == scanner.reports
        assert scanner.bytes_fed == 11

    def test_requires_source_network(self):
        tables = _tables("ab")
        tables.network = None
        assert not get_backend("reference").applicable(tables)
        with pytest.raises(BackendUnavailable, match="cannot execute"):
            resolve_backend("reference", tables)

    def test_feed_after_finish_raises(self):
        tables = _tables("ab")
        scanner = resolve_backend("reference", tables).make_scanner(tables)
        scanner.feed(b"ab")
        scanner.finish()
        with pytest.raises(RuntimeError):
            scanner.feed(b"x")


#: pattern shapes covering every vectorization path: plain chains,
#: branching, anchors, self-loops (+/*), true cycles (group
#: repetition -> scalar fallback), counters and bit vectors (module
#: rescan path), and nullable rules.
BLOCK_PATTERNS = [
    r"abc",
    r"(cat|dog|bird)",
    r"^GET /[a-z]{1,8}",
    r"end$",
    r"^whole$",
    r"a*b?",
    r"xa+y",
    r"xa*y",
    r"(a|b)+x",
    r"(ab)+c",
    r"x(ab)*y",
    r"x[0-9]{3,6}y",
    r"\n[^\r\n]{4,12}\n",
    r".{2,5}stop",
    r"a.{3,9}b",
    r"(ab){2,4}c",
    r"a{4}",
]

BLOCK_INPUTS = [
    b"",
    b"a",
    b"abc",
    b"whole",
    b"GET /index HTTP\r\nabc x12345y end",
    b"aaaaaaaabbbbbbb",
    b"\nline-one\n\nline-two-is-long\n",
    b"zzzstopzz abab ababc xaay xy xababy",
    bytes(range(256)),
    b"a" * 40 + b"b" + b"a" * 40,
]


def _reference(network, data):
    sim = NetworkSimulator(network)
    sim.run(data)
    return sim.distinct_reports(), sim.stats


@needs_numpy
class TestBlockScannerEquivalence:
    @pytest.mark.parametrize("pattern", BLOCK_PATTERNS)
    def test_single_pattern_reports_and_stats(self, pattern):
        compiled = compile_pattern(pattern, report_id="p")
        tables = compile_tables(compiled.network)
        scanner = BlockScanner(tables)
        for data in BLOCK_INPUTS:
            want_reports, want_stats = _reference(compiled.network, data)
            scanner.reset()
            scanner.feed(data)
            scanner.finish()
            assert scanner.reports == want_reports, (pattern, data)
            assert scanner.stats.equivalent(want_stats), (pattern, data)

    @pytest.mark.parametrize("block_size", [2, 3, 7, 64])
    def test_tiny_blocks_cross_boundaries(self, block_size):
        """Vector state (enable carry, self-loop runs) must survive
        arbitrary block boundaries, including blocks of 2 bytes."""
        ruleset = compile_ruleset(
            [("r%d" % i, p) for i, p in enumerate(BLOCK_PATTERNS)]
        )
        data = b" ".join(BLOCK_INPUTS)
        want_reports, want_stats = _reference(ruleset.network, data)
        tables = compile_tables(ruleset.network)
        scanner = BlockScanner(tables, block_size=block_size)
        scanner.feed(data)
        scanner.finish()
        assert scanner.reports == want_reports
        assert scanner.stats.equivalent(want_stats)

    def test_chunked_feed_equals_one_shot(self):
        tables = compile_tables(
            compile_ruleset([("a", r"ab[cd]{2,6}e"), ("b", r"xa+y")]).network
        )
        data = b"xaaay abccde abdddde xy " * 40
        one = BlockScanner(tables)
        one.feed(data)
        chunked = BlockScanner(tables, block_size=32)
        new = []
        for offset in range(0, len(data), 13):
            new.extend(chunked.feed(data[offset : offset + 13]))
        chunked.finish()
        one.finish()
        assert chunked.reports == one.reports
        assert set(new) == chunked.reports
        assert chunked.stats.equivalent(one.stats)

    def test_feed_returns_new_reports_in_position_order(self):
        tables = _tables("ab")
        scanner = BlockScanner(tables)
        new = scanner.feed(b"ab ab ab")
        assert new.ends.tolist() == [2, 5, 8]
        assert new.index.tolist() == [0, 0, 0] and tables.report_ids == ["p"]
        assert list(new) == [(2, "p"), (5, "p"), (8, "p")]
        assert list(scanner.feed(b" ab")) == [(11, "p")]

    def test_feed_after_finish_raises(self):
        scanner = BlockScanner(_tables("ab"))
        scanner.feed(b"ab")
        scanner.finish()
        with pytest.raises(RuntimeError):
            scanner.feed(b"ab")
        scanner.reset()
        assert scanner.scan(b"xab") == {(3, "p")}

    def test_vectorizable_modules_run_in_sweep_without_rescans(self):
        """Bounded repeats with one-STE bodies execute inside the
        sweep: every block commits."""
        compiled = compile_pattern(r"[^a]a{3,9}", report_id="p")
        tables = compile_tables(compiled.network)
        data = b"xaaaa baaab zaaaaaaaaaz " * 200
        want_reports, want_stats = _reference(compiled.network, data)
        scanner = BlockScanner(tables, block_size=16)
        scanner.feed(data)
        scanner.finish()
        assert scanner.reports == want_reports
        assert scanner.stats.equivalent(want_stats)
        sweep = scanner.sweep_stats
        assert sweep.modules_vectorized
        assert sweep.committed_blocks == -(-len(data) // 16)

    @pytest.mark.parametrize(
        "factory, total",
        [
            (snort_like, 14),
            (suricata_like, 12),
            (protomata_like, 10),
            (spamassassin_like, 12),
            (clamav_like, 10),
        ],
    )
    def test_synthetic_suite_equivalence(self, factory, total):
        """Acceptance: block == reference on all five synthetic suites,
        both with modules (threshold 0) and STE-only (unfolded)."""
        suite = factory(total=total, seed=11)
        background = stream_for_style(suite.input_style, 4000, seed=2)
        data = plant_matches(background, [r.pattern for r in suite.rules], seed=3)
        for threshold in (0, float("inf")):
            ruleset = compile_ruleset(suite.patterns(), unfold_threshold=threshold)
            want_reports, want_stats = _reference(ruleset.network, data)
            scanner = BlockScanner(compile_tables(ruleset.network))
            scanner.feed(data)
            scanner.finish()
            assert scanner.reports == want_reports
            assert scanner.stats.equivalent(want_stats)

    def test_program_shared_across_scanners(self):
        tables = _tables("abc")
        assert BlockScanner(tables)._program is BlockScanner(tables)._program

    def test_ste_only_suite_sweeps_at_twice_the_interpreter_rate(self):
        """The guard on the module-free table class (every repository
        benchmark workload has modules): the fully unfolded 40-rule
        Snort-style suite resolves to ``block`` under ``auto``, and
        ``block`` scans it >= 2x as fast as ``stream`` with identical
        reports (best of 3, the two backends interleaved)."""
        rules, data = planted_snort40()
        ruleset = compile_ruleset(rules, unfold_threshold=float("inf"))
        tables = compile_tables(ruleset.network)
        assert tables.n_modules == 0
        assert resolve_backend("auto", tables).name == "block"
        chunks = [data[at : at + (1 << 14)] for at in range(0, len(data), 1 << 14)]
        scanners = {
            name: get_backend(name).make_scanner(tables)
            for name in ("stream", "block")
        }
        best = dict.fromkeys(scanners, float("inf"))
        for _ in range(3):
            for name, scanner in scanners.items():
                scanner.reset()
                start = time.perf_counter()
                for chunk in chunks:
                    scanner.feed(chunk)
                scanner.finish()
                best[name] = min(best[name], time.perf_counter() - start)
        assert scanners["block"].reports == scanners["stream"].reports != set()
        assert best["stream"] / best["block"] >= 2.0, best

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
        reason="minor-fault counts and the glibc heap are Linux/glibc specifics",
    )
    def test_blocks_reuse_the_heap_the_last_block_freed(self):
        """A sweep frees its lanes at every block boundary; the next block
        must reuse that heap, not fault it back in from the OS (on the
        40-rule suite: thousands of minor faults a pass when glibc trims
        the heap top, a few dozen when it keeps it).  A fresh interpreter
        counts them: the allocator setting is process-wide."""
        script = textwrap.dedent(
            """
            import resource
            from repro.matching import RulesetMatcher
            from tests.helpers import planted_snort40

            rules, data = planted_snort40()
            matcher = RulesetMatcher(rules, engine="block")

            def scan_pass():
                with matcher.session() as session:
                    for at in range(0, len(data), 1 << 14):
                        session.feed(data[at : at + (1 << 14)])

            scan_pass()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            scan_pass()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        root = Path(__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert int(out.stdout) < 500, out.stdout


class TestFacadeEngineSelection:
    def test_engine_kwarg_equivalence_all_names(self):
        matcher = RulesetMatcher(
            [("lit", r"abc"), ("ctr", r"[^a]a{3,5}"), ("end", r"bc$")]
        )
        data = b"zabc xaaaa abcbc"
        want = matcher.scan(data, engine="reference")
        engines = ["auto", "stream"]
        if block_engine.numpy_or_none() is not None:
            engines.append("block")
        for engine in engines:
            got = matcher.scan(data, engine=engine)
            assert got == want, engine

    def test_scan_stream_honors_reference_engine(self):
        matcher = RulesetMatcher([("lit", r"abc")], engine="reference")
        assert matcher.scan_stream([b"ab", b"c"]).matches == {"lit": [3]}
        # the session wraps a scanner from the matcher's default backend
        assert type(matcher.session().scanners[0]).__name__ == "ReferenceScanner"

    def test_scan_many_ships_engine_choice(self):
        matcher = RulesetMatcher(MODULE_FREE_RULES)
        streams = [b"zabcz", b"no", b"xyw cat"]
        engines = ["stream", "reference"]
        if block_engine.numpy_or_none() is not None:
            engines.append("block")
        for engine in engines:
            assert matcher.scan_many(streams, engine=engine) == [
                matcher.scan(s) for s in streams
            ]

    def test_validated_backends_recorded_in_cache(self, tmp_path):
        rules = [("lit", r"abc")]
        cold = RulesetMatcher(rules, cache_dir=str(tmp_path))
        warm = RulesetMatcher(rules, cache_dir=str(tmp_path))
        assert warm.compile_info.cache_hit
        assert warm.validated_backends == cold.validated_backends
        assert "stream" in warm.validated_backends
