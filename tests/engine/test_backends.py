"""Engine names and the ``"block"`` scanner's contract.

Covers name resolution (``auto`` selection, the single unknown-engine
error, graceful degradation without NumPy), the ``"reference"`` oracle
adapter, and the ``"block"`` scanner's equivalence contract: identical
distinct reports *and* ActivityStats against the reference simulator
on every pattern shape, chunking, and all five synthetic suites.
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
    BackendUnavailable,
    ReferenceScanner,
    available_engines,
    engine_choices,
    resolve_backend,
)
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


class TestResolve:
    def test_engine_names(self):
        assert engine_choices() == ["auto", "stream", "block", "reference"]
        assert {"stream", "reference"} <= set(available_engines())
        assert set(available_engines()) <= set(engine_choices()[1:])

    def test_unknown_name_error_lists_engines(self):
        with pytest.raises(ValueError, match="available engines: auto, stream"):
            resolve_backend("quantum")
        # no alias layer: the historical "table" spelling is gone
        with pytest.raises(ValueError, match="available engines"):
            resolve_backend("table")

    def test_auto_without_tables_picks_stream(self):
        # with nothing to analyse, auto takes the scanner that always runs
        engine = resolve_backend("auto")
        assert engine.name == "stream"
        assert engine.make_scanner is StreamScanner

    def test_resolves_to_a_name_and_a_scanner_factory(self):
        tables = _tables("ab")
        engine = resolve_backend("stream", tables)
        assert engine.name == "stream"
        assert engine.make_scanner(tables).scan(b"xab") == {(3, "p")}

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


class TestNumpyDegradation:
    """The block backend must degrade, not explode, without NumPy."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(block_engine, "_np", None)
        monkeypatch.setattr(block_engine, "_NUMPY_ERROR", "simulated import failure")

    def test_reported_unavailable(self, no_numpy):
        assert available_engines() == ["stream", "reference"]
        assert "block" in engine_choices()  # a name still, just not here

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
        assert type(matcher.session().scanners[0]) is StreamScanner

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


class TestReferenceOracle:
    def test_streams_chunk_by_chunk(self):
        network = compile_pattern(r"ab{2,4}c", report_id="p").network
        tables = compile_tables(network)
        scanner = ReferenceScanner(tables, network)
        new = []
        for chunk in (b"xab", b"bc", b"abbbbc"):
            new.extend(scanner.feed(chunk))
        scanner.finish()
        assert scanner.reports == StreamScanner(tables).scan(b"xabbcabbbbc")
        assert set(new) == scanner.reports
        assert scanner.bytes_fed == 11

    def test_bare_tables_are_refused(self):
        # the oracle interprets the rules' network, which tables do not
        # carry: only a matcher (which holds its rules) can build it
        tables = _tables("ab")
        engine = resolve_backend("reference", tables)
        assert engine.name == "reference"
        with pytest.raises(BackendUnavailable, match="network"):
            engine.make_scanner(tables)

    def test_feed_after_finish_raises(self):
        network = compile_pattern("ab", report_id="p").network
        scanner = ReferenceScanner(compile_tables(network), network)
        scanner.feed(b"ab")
        scanner.finish()
        with pytest.raises(RuntimeError):
            scanner.feed(b"x")

    def test_reset_rescans_from_the_start(self):
        network = compile_pattern(r"a[bc]{2}d", report_id="p").network
        tables = compile_tables(network)
        scanner = ReferenceScanner(tables, network)
        data = b"xabcd acbd abd"
        first = scanner.scan(data)
        stats = scanner.stats
        scanner.reset()
        assert scanner.bytes_fed == 0 and not scanner.reports
        for chunk in (data[:5], data[5:]):
            scanner.feed(chunk)
        scanner.finish()
        assert scanner.reports == first == StreamScanner(tables).scan(data)
        assert scanner.stats == stats
        assert scanner.match_ends(data) == StreamScanner(tables).match_ends(data) == [5, 10]


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
            name: resolve_backend(name, tables).make_scanner(tables)
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
        # the session wraps a scanner from the matcher's default engine
        assert type(matcher.session().scanners[0]) is ReferenceScanner

    def test_reference_default_engine_on_a_warm_cache(self, tmp_path):
        # the artifact holds no network: a warm matcher whose default
        # engine is the oracle rebuilds it from its rules on first use
        rules = [("lit", r"abc"), ("ctr", r"[^a]a{3,5}")]
        data = b"zabc xaaaa"
        cold = RulesetMatcher(rules, engine="reference", cache_dir=str(tmp_path))
        warm = RulesetMatcher(rules, engine="reference", cache_dir=str(tmp_path))
        assert warm.compile_info.cache_hit
        assert type(warm.session().scanners[0]) is ReferenceScanner
        assert warm.scan(data) == cold.scan(data) == RulesetMatcher(rules).scan(data)
        assert warm.scan_stream([data[:3], data[3:]]) == cold.scan(data)

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
