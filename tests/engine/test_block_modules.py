"""In-sweep counter/bit-vector execution (`engine.block_modules`).

Three layers of proof that module state is exact under vector sweeps:

* analyze-level: which wirings the block scanner absorbs into closed
  forms and which it rejects (those run on the embedded interpreter);
* chunk-boundary properties: counter registers, bit-vector shift
  registers and plain STE enables carry exactly across ``feed()``
  splits at **every** split point of a matching window, with every
  block committed by the one sweep;
* rejected tables: under an explicit ``engine="block"`` they are the
  scalar interpreter, exactly, and ``auto`` never picks block for them.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.block as block_engine
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.backends import resolve_backend
from repro.engine.block import BlockScanner, BlockSweepStats, _program_for
from repro.engine.scanner import StreamScanner
from repro.engine.tables import compile_tables

pytestmark = pytest.mark.skipif(
    block_engine.numpy_or_none() is None,
    reason="numpy not installed (block backend unavailable)",
)

_TABLES_CACHE: dict = {}


def _tables(pattern):
    tables = _TABLES_CACHE.get(pattern)
    if tables is None:
        tables = compile_tables(compile_pattern(pattern, report_id="p").network)
        _TABLES_CACHE[pattern] = tables
    return tables


def _want(tables, data):
    reference = StreamScanner(tables)
    reference.feed(data)
    return reference.finish(), reference.stats


def _assert_every_split_exact(tables, data, block_size):
    """Feed ``data`` split at every possible point; each split must
    reproduce the one-shot reference exactly, with every block
    committed by the sweep (the whole point of in-lane execution)."""
    want_reports, want_stats = _want(tables, data)
    for split in range(len(data) + 1):
        scanner = BlockScanner(tables, block_size=block_size)
        scanner.feed(data[:split])
        scanner.feed(data[split:])
        context = (data, split, block_size)
        assert scanner.finish() == want_reports, context
        assert scanner.stats.equivalent(want_stats), context
        sweep = scanner.sweep_stats
        assert sweep.modules_vectorized, context
        assert sweep.committed_blocks > 0, context


class TestAnalyze:
    """Which tables the sweep absorbs vs. rejects."""

    @pytest.mark.parametrize(
        "pattern",
        [r"[^a]a{3,9}", r"b.{2,4}c", r"x[ab]{2,6}y", r"ba{2,2}c"],
    )
    def test_one_ste_loops_vectorize(self, pattern):
        program = _program_for(_tables(pattern))
        assert program.sweep_ok
        assert any(plan.absorbed is not None for plan in program.mod_plans)

    def test_all_input_bit_vector_runs_free_standing(self):
        # `.` bodies pair with an always-on STE, so the module is not
        # absorbed -- but its lanes still evaluate inside the sweep
        program = _program_for(_tables(r".{3,5}z"))
        assert program.sweep_ok
        assert all(plan.absorbed is None for plan in program.mod_plans)

    def test_multi_ste_body_falls_back(self):
        # (ab){2,3}: both body STEs drive the counter's fst/lst ports,
        # outside every absorption template -> rejected
        assert not BlockScanner.can_sweep(_tables(r"x(ab){2,3}y"))

    def test_module_free_tables_unchanged(self):
        # the module-free case of the same analysis: accepted, no
        # plans, the steps are the STE topological order
        tables = _tables(r"abc")
        assert BlockScanner.can_sweep(tables)
        program = _program_for(tables)
        assert program.mod_plans == []
        assert sorted(program.steps) == [(0, v) for v in range(tables.n_stes)]


class TestChunkBoundaryProperties:
    """Satellite: module state carries exactly across feed() splits."""

    @given(
        lo=st.integers(min_value=2, max_value=6),
        extra=st.integers(min_value=0, max_value=3),
        run=st.integers(min_value=1, max_value=9),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_counter_register_across_every_split(self, lo, extra, run, block_size):
        hi = lo + extra
        tables = _tables(f"[^a]a{{{lo},{hi}}}")
        data = b"ca" + b"x" + b"a" * run + b"bc"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        gap=st.integers(min_value=0, max_value=7),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_vector_register_across_every_split(self, lo, extra, gap, block_size):
        hi = lo + extra
        tables = _tables(f"b.{{{lo},{hi}}}c")
        # overlapping b's keep several tokens of different ages alive
        data = b"bb" + b"x" * gap + b"c" + b"b" + b"c"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        run=st.integers(min_value=1, max_value=8),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_input_bit_vector_across_every_split(self, lo, extra, run, block_size):
        hi = lo + extra
        tables = _tables(f".{{{lo},{hi}}}z")
        data = b"ab" * run + b"z" + b"az"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=2, max_value=4),
        extra=st.integers(min_value=0, max_value=2),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_mixed_ruleset_across_every_split(self, lo, extra, block_size):
        hi = lo + extra
        key = ("mixed", lo, hi)
        tables = _TABLES_CACHE.get(key)
        if tables is None:
            rules = [
                ("ctr", f"[^a]a{{{lo},{hi}}}"),
                ("gap", f"b.{{{lo},{hi}}}c"),
                ("lit", "abc"),
            ]
            tables = compile_tables(compile_ruleset(rules).network)
            _TABLES_CACHE[key] = tables
        data = b"xa" * hi + b"b" + b"y" * lo + b"cabc"
        _assert_every_split_exact(tables, data, block_size)

    @pytest.mark.parametrize(
        "pattern, data",
        [
            pytest.param(r"abcab", b"xabcabcab abcab", id="literal-chain"),
            pytest.param(r"xya+", b"xyaaa xya xyb xyaa", id="self-loop-tail"),
        ],
    )
    @pytest.mark.parametrize("block_size", [2, 3, 5])
    def test_ste_only_tables_across_every_split(self, pattern, data, block_size):
        tables = _tables(pattern)
        assert tables.n_modules == 0
        _assert_every_split_exact(tables, data, block_size)


class TestSweepStats:
    """Satellite: commits surfaced, not inferred."""

    def test_zero_rescans_assertable_on_vectorized_modules(self):
        tables = _tables(r"[^a]a{3,9}")
        scanner = BlockScanner(tables, block_size=16)
        scanner.feed(b"xaaaa baaab zaaaaaaaaaz " * 50)
        sweep = scanner.sweep_stats
        assert isinstance(sweep, BlockSweepStats)
        assert sweep.modules_vectorized
        assert sweep.committed_blocks > 0

    def test_reset_clears_sweep_stats(self):
        scanner = BlockScanner(_tables(r"[^a]a{3,9}"), block_size=16)
        scanner.feed(b"xaaaa" * 40)
        assert scanner.sweep_stats.committed_blocks > 0
        scanner.reset()
        assert scanner.sweep_stats.committed_blocks == 0


#: shapes the sweep analysis rejects: a multi-STE counter body, nested
#: counting, an STE cycle longer than a self-loop
REJECTED = [
    pytest.param(r"x(ab){2,3}y", b"xababy xabababy zz ", id="multi-ste-body"),
    pytest.param(
        r"x(ab{2,3}){2,3}y", b"xabbabby xabby xabbbabbabbby ", id="nested-counting"
    ),
    pytest.param(r"(ab)+c", b"ababc abc ac abab ", id="ste-cycle"),
]


class TestRejectedTables:
    """Tables the analysis rejects run whole on the embedded
    interpreter -- no sweep is attempted, nothing differs from stream."""

    @pytest.mark.parametrize("pattern, unit", REJECTED)
    def test_explicit_block_is_the_interpreter(self, pattern, unit):
        tables = _tables(pattern)
        assert not BlockScanner.can_sweep(tables)
        assert resolve_backend("auto", tables).name == "stream"
        data = unit * 40
        want_reports, want_stats = _want(tables, data)
        assert want_reports
        scanner = BlockScanner(tables, block_size=16)
        for offset in range(0, len(data), 48):
            scanner.feed(data[offset : offset + 48])
        assert scanner.finish() == want_reports
        assert scanner.stats.equivalent(want_stats)
        sweep = scanner.sweep_stats
        assert sweep.committed_blocks == 0
        assert sweep.modules_vectorized is False
