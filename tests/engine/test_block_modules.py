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

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.engine.block as block_engine
import repro.engine.block_modules as block_modules
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.backends import resolve_backend
from repro.engine.block import BlockScanner, BlockSweepStats, _program_for
from repro.engine.scanner import StreamScanner
from repro.engine.tables import (
    KIND_BIT_VECTOR,
    PORT_BODY,
    PORT_FST,
    PORT_LST,
    SRC_AUX,
    SRC_OUT,
    compile_tables,
)
from repro.workloads import network_stream, plant_matches
from repro.workloads.synth import module_heavy, snort_like

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
    reference.finish()
    return reference.reports, reference.stats


def _assert_every_split_exact(tables, data, block_size, splits=None):
    """Feed ``data`` split at every possible point (or at ``splits``);
    each split must reproduce the one-shot reference exactly, with
    every block committed by the sweep (the whole point of in-lane
    execution)."""
    want_reports, want_stats = _want(tables, data)
    for split in range(len(data) + 1) if splits is None else splits:
        scanner = BlockScanner(tables, block_size=block_size)
        scanner.feed(data[:split])
        context = (data, split, block_size)
        # the state written back at the cut is the interpreter's own
        cut = StreamScanner(tables)
        cut.feed(data[:split])
        for name in ("_enabled", "_counts", "_bv", "_pre", "_dirty"):
            got = getattr(scanner._scalar, name)
            assert got == getattr(cut, name), (name, context)
        scanner.feed(data[split:])
        scanner.finish()
        assert scanner.reports == want_reports, context
        assert scanner.stats.equivalent(want_stats), context
        sweep = scanner.sweep_stats
        assert sweep.modules_vectorized, context
        assert sweep.committed_blocks > 0, context


def _naive_try_absorb(tables, plan, preds, has_self, always_eff, start_flag):
    """The oracle for ``block_modules._try_absorb``: the same templates,
    with the module drivers of the candidate STE found by shifting every
    module's out/aux mask."""
    m = plan.index
    aux_mask = tables.aux_ste_masks[m]
    if aux_mask == 0 or aux_mask & (aux_mask - 1):
        return None
    s = aux_mask.bit_length() - 1
    if always_eff[s] or has_self[s] or tables.aux_module_hooks[m] or plan.all_input:
        return None
    if start_flag[s] != tables.module_initial_pre[m]:
        return None
    hooks = set(tables.ste_module_hooks[s] or ())
    if plan.kind == KIND_BIT_VECTOR:
        if hooks != {(m, PORT_BODY)} or plan.body_stes != (s,) or plan.body_mods:
            return None
    else:
        if hooks != {(m, PORT_FST), (m, PORT_LST)}:
            return None
        if plan.fst_stes != (s,) or plan.lst_stes != (s,):
            return None
        if plan.fst_mods or plan.lst_mods:
            return None
    if set(preds[s]) != set(plan.pre_stes):
        return None
    s_mod_drivers = set()
    for j in range(tables.n_modules):
        if (tables.out_ste_masks[j] >> s) & 1:
            s_mod_drivers.add((j, SRC_OUT))
        if (tables.aux_ste_masks[j] >> s) & 1 and j != m:
            s_mod_drivers.add((j, SRC_AUX))
    if s_mod_drivers != set(plan.pre_mods):
        return None
    return s


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

    @pytest.mark.parametrize(
        "suite", [module_heavy(24), snort_like(40)], ids=lambda s: s.name
    )
    def test_absorbed_stes_match_the_naive_driver_scan(self, suite):
        # the module drivers of each STE come from one inverted map; the
        # oracle shifts every module's out/aux mask for every module
        tables = compile_tables(compile_ruleset(suite.patterns(), opt_level=1).network)
        program = block_engine._BlockProgram(tables)
        assert program.sweep_ok
        absorbed = {plan.index: plan.absorbed for plan in program.mod_plans}
        assert any(s is not None for s in absorbed.values())
        for plan in program.mod_plans:
            want = _naive_try_absorb(
                tables,
                plan,
                program.preds,
                program.has_self,
                program.always_eff_flag,
                program.start_flag,
            )
            assert absorbed[plan.index] == want, plan.index
        for w in range(tables.n_stes):
            naive = tuple(
                (m, src)
                for m in range(tables.n_modules)
                for src, masks in (
                    (SRC_OUT, tables.out_ste_masks),
                    (SRC_AUX, tables.aux_ste_masks),
                )
                if (masks[m] >> w) & 1
            )
            want = () if w in absorbed.values() else naive
            assert program.mod_preds[w] == want, w

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

    @given(
        lo=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=3),
        data=st.binary(min_size=1, max_size=20).map(
            lambda raw: bytes(b"bxyc"[byte % 4] for byte in raw)
        ),
        block_size=st.sampled_from([2, 3, 5]),
    )
    # the body breaks at the first / at the last position of a live window
    @example(lo=2, extra=2, data=b"bxyyc byyc", block_size=3)
    @example(lo=2, extra=2, data=b"bbyyyxc bbyyxc", block_size=3)
    @example(lo=3, extra=0, data=b"byyxc byyyc bbyyyc", block_size=2)
    @example(lo=1, extra=0, data=b"bxc byc bc bbcc", block_size=2)
    @settings(max_examples=60, deadline=None)
    def test_breaking_bit_vector_body_across_every_split(
        self, lo, extra, data, block_size
    ):
        tables = _tables(f"b[^x]{{{lo},{lo + extra}}}c")
        _assert_every_split_exact(tables, data, block_size)

    @pytest.mark.parametrize("block_size", [2, 3, 5, 64])
    @pytest.mark.parametrize(
        "shape", ["bit-vector", "all-input", "counter", "counter-lo-is-hi"]
    )
    def test_spans_crossing_several_blocks_across_every_split(self, shape, block_size):
        # hi >= 4 blocks: tokens / the counter register are carried over
        # three or more boundaries as virtual entries before they fire
        hi = 4 * block_size + 1
        if shape == "bit-vector":
            pattern = f"b.{{{hi - 1},{hi}}}c"
            data = b"bb" + b"y" * (hi - 2) + b"cccb" + b"y" * hi + b"cc"
        elif shape == "all-input":
            pattern = f".{{{hi - 2},{hi}}}z"
            data = b"ab" * (hi // 2) + b"zz" + b"a" * (hi + 1) + b"z"
        elif shape == "counter":
            pattern = f"[^a]a{{2,{hi}}}"
            data = b"ca" + b"x" + b"a" * (hi + 2) + b"bc"
        else:
            pattern = f"[^a]a{{{hi},{hi}}}"
            data = b"x" + b"a" * (hi - 1) + b"x" + b"a" * (hi + 1) + b"c"
        tables = _tables(pattern)
        assert tables.n_modules == 1
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=4),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_counter_reentered_inside_its_window(self, lo, extra, block_size):
        # the second `x` re-arms the counter while the first run is still
        # below hi: the latest entry supersedes
        tables = _tables(f"[^a]a{{{lo},{lo + extra}}}")
        data = b"caxaaxaaaa" + b"a" * extra + b"xab"
        _assert_every_split_exact(tables, data, block_size)

    @pytest.mark.parametrize("block_size", [2, 3, 5])
    def test_counter_entry_inside_an_unbroken_run_supersedes(self, block_size):
        # No compiled counter sees this (the analysis only picks a
        # counter when an entry implies a broken run), so rewire one:
        # let the `x` STE that pulses `pre` also match `b`, which the
        # body [ab] holds on to.  Every `b` restarts the count mid-run.
        tables = _tables(r"x[ab]{2,6}b")
        assert tables.module_kinds == [block_modules.KIND_COUNTER]
        class_a, class_b = tables.byte_class[ord("a")], tables.byte_class[ord("b")]
        assert class_a != class_b
        match_masks = list(tables.match_masks)
        match_masks[class_b] |= tables.match_masks[tables.byte_class[ord("x")]]
        rewired = dataclasses.replace(tables, match_masks=match_masks)
        data = b"xaabaaaab xaaaaabab baaaaaaaab"
        assert _want(rewired, data)[0] != _want(tables, data)[0]
        _assert_every_split_exact(rewired, data, block_size)

    @given(
        lo=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=70),
        raw=st.binary(min_size=1024, max_size=1024),
    )
    @settings(max_examples=10, deadline=None)
    def test_dense_entries_with_overlapping_windows(self, lo, extra, raw):
        # `.` body: every position is an entry, every window overlaps
        # its neighbours, and z's are everywhere.  Splits 0..64 put the
        # block grid at every phase of the data.
        tables = _tables(f".{{{lo},{lo + extra}}}z")
        data = bytes(b"abxz"[byte % 4] for byte in raw)
        _assert_every_split_exact(tables, data, 64, splits=range(65))

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


class TestPaint:
    """`_paint` against a naive loop over the same interval list."""

    @given(
        blen=st.integers(min_value=1, max_value=40),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # start moves on by
                st.integers(min_value=0, max_value=6),  # end moves on by
            ),
            max_size=12,
        ),
        first_end=st.integers(min_value=-3, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_union_of_sorted_intervals(self, blen, steps, first_end):
        np = block_engine.numpy_or_none()
        # non-decreasing starts and ends, clipped to the block like the
        # callers clip them; members come out empty (end < start),
        # adjacent, overlapping and cut at either block edge
        starts, ends = [], []
        start, end = 0, first_end
        for start_step, end_step in steps:
            start, end = start + start_step, end + end_step
            starts.append(min(start, blen - 1))
            ends.append(min(end, blen - 1))
        want = [False] * blen
        for lo, hi in zip(starts, ends):
            for position in range(lo, hi + 1):
                want[position] = True
        lane = block_modules._paint(
            np, blen, np.array(starts, dtype=np.intp), np.array(ends, dtype=np.intp)
        )
        if not any(want):
            assert lane is None
        else:
            assert lane.dtype == bool and lane.tolist() == want


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
        scanner.finish()
        assert scanner.reports == want_reports
        assert scanner.stats.equivalent(want_stats)
        sweep = scanner.sweep_stats
        assert sweep.committed_blocks == 0
        assert sweep.modules_vectorized is False


def _stored(tables):
    """``tables`` as a cache artifact or a pool worker sees them: the
    program derived once, then pickled with them."""
    _program_for(tables)
    return pickle.loads(pickle.dumps(tables))


class TestStoredProgram:
    """A scanner over a *loaded* program is the scanner over a freshly
    derived one: the program is never rebuilt, and reports, exact
    stats and carried state agree at every split."""

    @pytest.fixture(autouse=True)
    def _patcher(self, monkeypatch):
        self.patch = monkeypatch

    def _assert_same_scanner(self, tables, data, block_size):
        loaded = _stored(tables)

        def rebuilt(*args, **kwargs):
            raise AssertionError("program rebuilt from stored tables")

        self.patch.setattr(block_engine._BlockProgram, "__init__", rebuilt)
        self.patch.setattr(block_modules, "analyze", rebuilt)
        state = loaded.prepared["block"].__getstate__()[1]
        assert "ndarray" not in {type(value).__name__ for value in state.values()}
        fresh, warm = (
            BlockScanner(t, block_size=block_size) for t in (tables, loaded)
        )
        for offset in range(0, len(data), 3 * block_size + 1):
            chunk = data[offset : offset + 3 * block_size + 1]
            assert warm.feed(chunk) == fresh.feed(chunk)
            assert warm._scalar._enabled == fresh._scalar._enabled
        warm.finish()
        fresh.finish()
        assert warm.reports == fresh.reports != set()
        assert warm.stats == fresh.stats  # exact, not merely equivalent
        assert warm.sweep_stats == fresh.sweep_stats
        return loaded

    @pytest.mark.parametrize(
        "rules, modules, block_size",
        [
            pytest.param(module_heavy(24).patterns(), True, 32, id="module_heavy"),
            pytest.param(
                [(i, p) for i, p in snort_like(12, seed=5).patterns() if "{" not in p],
                False,
                16,
                id="ste-only",
            ),
        ],
    )
    def test_accepted_tables(self, rules, modules, block_size):
        tables = compile_tables(compile_ruleset(rules).network)
        assert (tables.n_modules > 0) == modules
        data = plant_matches(
            network_stream(160, seed=3), [p for _, p in rules], seed=4, density=0.4
        )
        loaded = self._assert_same_scanner(tables, data, block_size)
        assert BlockScanner.can_sweep(loaded)
        _assert_every_split_exact(loaded, data[:120], block_size)

    @pytest.mark.parametrize("pattern, unit", REJECTED)
    def test_rejected_verdict_persists(self, pattern, unit):
        tables = compile_tables(compile_pattern(pattern, report_id="p").network)
        loaded = self._assert_same_scanner(tables, unit * 6, 16)
        assert not BlockScanner.can_sweep(loaded)
        assert resolve_backend("auto", loaded).name == "stream"
