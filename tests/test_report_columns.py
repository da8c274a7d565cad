"""Reports travel as columns from the sweep to ``MatchSession.feed``.

Every backend's ``feed`` returns one :class:`ReportColumns` value (an
``ends`` column and a report-index column), scanners keep their history
as appended columns, and the session gates, orders and names reports
through a per-index layout.  These tests pin the end-of-data gating the
session's held tail must keep, the order across shards, and the
structural claim: no Python object per report is retained, and the
``reports`` view is never decoded on the feed/finish path.
"""

import gc
import tracemalloc

import pytest

from repro.engine.backends import available_engines
from repro.engine.parallel import ShardedMatcher
from repro.engine.scanner import ReportColumns
from repro.compiler.pipeline import compile_ruleset
from repro.matching import RulesetMatcher
from tests.helpers import forbid_report_views, scanner_for

ENGINES = available_engines()
needs_block = pytest.mark.skipif("block" not in ENGINES, reason="numpy not installed")

GATED_RULES = [("end", r"abc$"), ("hit", r"ab"), ("tail", r"c$")]


def events(matches):
    return [(match.rule, match.end) for match in matches]


def matchers():
    return [RulesetMatcher(GATED_RULES), ShardedMatcher(GATED_RULES, shards=2)]


class TestEndOfDataGating:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("matcher", matchers(), ids=["single", "2-shard"])
    def test_anchored_match_survives_empty_trailing_feed(self, matcher, engine):
        session = matcher.session(engine=engine)
        assert events(session.feed(b"xxabc")) == [("hit", 4)]
        assert session.feed(b"") == []
        assert events(session.finish()) == [("end", 5), ("tail", 5)]
        assert session.result().matches == {"end": [5], "hit": [4], "tail": [5]}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("matcher", matchers(), ids=["single", "2-shard"])
    def test_split_on_the_gated_byte(self, matcher, engine):
        """The gated byte alone in the last chunk, then an empty feed."""
        session = matcher.session(engine=engine)
        assert events(session.feed(b"xxab")) == [("hit", 4)]
        assert session.feed(b"c") == []
        assert session.feed(b"") == []
        assert events(session.finish()) == [("end", 5), ("tail", 5)]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("matcher", matchers(), ids=["single", "2-shard"])
    def test_a_later_byte_revokes_the_held_tail(self, matcher, engine):
        session = matcher.session(engine=engine)
        session.feed(b"abc")
        session.feed(b"")
        assert events(session.feed(b"d")) == []
        assert session.finish() == []
        assert session.result().matches == {"hit": [2]}


class TestColumns:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_backend_returns_one_feed_type(self, engine):
        scanner = scanner_for(
            engine,
            compile_ruleset([("a", r"ab+c"), ("b", r"[0-9]{3}"), ("c", r"x.{2,4}y")]).network,
        )
        out = [scanner.feed(chunk) for chunk in (b"zabbbc 1234", b"5 x12y ", b"", b"abc")]
        assert all(type(columns) is ReportColumns for columns in out)
        assert [columns.ends.tolist() for columns in out] == [[6, 10, 11], [12, 17], [], [21]]
        assert [list(columns) for columns in out][1] == [(12, "b"), (17, "c")]
        assert scanner.finish() is None
        assert scanner.reports == {
            (6, "a"), (10, "b"), (11, "b"), (12, "b"), (17, "c"), (21, "a"),
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sharded_emission_is_in_sort_key_order(self, engine):
        """The per-index rank orders matches of different shards that
        end on one byte exactly as Match.sort_key does."""
        rules = [(name, r"[0-9]") for name in ("d", "b", "e", "a", "c")]
        session = ShardedMatcher(rules, shards=3).session(engine=engine)
        out = session.feed(b"x12y3")
        assert out == sorted(out, key=lambda match: match.sort_key)
        assert events(out)[:5] == [("a", 2), ("b", 2), ("c", 2), ("d", 2), ("e", 2)]
        assert len(out) == 15


class TestMatchFields:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("repeat", [1, 200], ids=["few", "many"])
    def test_ends_are_python_ints(self, engine, repeat):
        """Matches hand out plain ``int`` ends, never NumPy scalars,
        whatever the backend's column type."""
        session = RulesetMatcher(GATED_RULES).session(engine=engine)
        out = session.feed(b"xxabc" * repeat)
        assert len(out) == repeat
        assert {type(match.end) for match in out} == {int}
        assert {type(match.end) for match in session.finish()} == {int}


class TestNoPerReportObjects:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_feed_and_finish_never_decode_the_reports_view(self, engine, monkeypatch):
        matcher = RulesetMatcher(GATED_RULES + [("num", r"[0-9]{2}")])
        forbid_report_views(monkeypatch.setattr)
        session = matcher.session(engine=engine)
        got = []
        for chunk in (b"ab 123 ", b"ab", b"c", b""):
            got.extend(events(session.feed(chunk)))
        got.extend(events(session.finish()))
        assert got == [
            ("hit", 2), ("num", 5), ("num", 6), ("hit", 9), ("end", 10), ("tail", 10),
        ]

    @needs_block
    def test_block_session_retains_under_48_bytes_a_report(self):
        """Structural, not timed: with every feed's output dropped, what
        the session and its scanner keep per report is two int64
        columns, not a tuple in a set (128 bytes a report before)."""
        matcher = RulesetMatcher([("digit", r"[0-9]"), ("pair", r"[0-9][0-9]")])
        data = b"0123456789" * 6554  # 65 540 bytes, a report at nearly every byte
        chunks = [data[i : i + 4096] for i in range(0, len(data), 4096)]
        session = matcher.session(engine="block")
        # first-use state (layout, program, lazy imports) outside the count
        first = len(session.feed(chunks[0]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for chunk in chunks[1:]:
                session.feed(chunk)
            session.finish()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        (scanner,) = session.scanners
        reports = len(scanner.reports) - first
        assert reports > 100_000
        assert retained <= 48 * reports, retained / reports
