"""Session API: incremental Match emission, sinks, the Matcher protocol.

The redesign's contract: ``MatchSession`` behaves identically over
``RulesetMatcher`` and ``ShardedMatcher`` and every engine
-- incremental ``Match`` events with absolute offsets, ``feed`` and
``finish`` both returning offset-sorted lists -- and the batch entry
points are exact wrappers over it (differentially tested against the
session path, including the five synthetic suites).
"""

import queue

import pytest

from repro.engine.backends import available_engines
from repro.engine.parallel import ShardedMatcher
from repro.matching import RulesetMatcher, UNNAMED_REPORT
from repro.session import (
    CollectorSink,
    Match,
    MatchSession,
    Matcher,
    QueueSink,
    match_dict,
)
from repro.workloads.inputs import plant_matches, stream_for_style
from repro.workloads.synth import (
    clamav_like,
    protomata_like,
    snort_like,
    spamassassin_like,
    suricata_like,
)

RULES = [
    ("hit", r"abc"),
    ("num", r"[0-9]{3,5}"),
    ("tail", r"xyz$"),
    ("head", r"^GET"),
    ("ctr", r"[^a]a{3,5}"),
]

DATA = b"GET /abc 1234 baaaa ... xyz"


def chunked(data: bytes, size: int) -> list[bytes]:
    return [data[i : i + size] for i in range(0, len(data), size)]


class TestMatch:
    def test_fields_and_sort_key(self):
        match = Match("hit", 4, "s1", "hit")
        assert (match.rule, match.end, match.stream, match.code) == (
            "hit", 4, "s1", "hit",
        )
        assert match.sort_key == (4, "hit", "s1", "hit")

    def test_frozen_and_hashable(self):
        match = Match("hit", 4)
        with pytest.raises(AttributeError):
            match.end = 5
        assert len({match, Match("hit", 4)}) == 1

    def test_match_dict_collapses(self):
        matches = [Match("a", 2), Match("a", 1), Match("a", 2), Match("b", 3)]
        assert match_dict(matches) == {"a": [1, 2], "b": [3]}


class TestMatchSessionBasics:
    def test_incremental_emission_absolute_offsets(self):
        matcher = RulesetMatcher(RULES)
        session = matcher.session()
        first = session.feed(DATA[:9])   # "GET /abc "
        second = session.feed(DATA[9:])
        assert match_dict(first) == {"head": [3], "hit": [8]}
        # offsets are stream-absolute despite the chunk split
        assert {m.end for m in second if m.rule == "num"} == {12, 13}
        assert session.bytes_fed == len(DATA)

    def test_feed_and_finish_both_sorted_match_lists(self):
        matcher = RulesetMatcher(RULES)
        session = matcher.session()
        emitted = session.feed(DATA)
        final = session.finish()
        for batch in (emitted, final):
            assert isinstance(batch, list)
            assert all(isinstance(m, Match) for m in batch)
            assert batch == sorted(batch, key=lambda m: m.sort_key)
        # $-anchored rules only come out of finish()
        assert {m.rule for m in final} == {"tail"}
        assert final[0].end == len(DATA)

    def test_finish_idempotent_and_feed_after_finish_raises(self):
        session = RulesetMatcher(RULES).session()
        session.feed(DATA)
        session.finish()
        assert session.finish() == []
        with pytest.raises(RuntimeError):
            session.feed(b"more")

    def test_context_manager_finishes_on_clean_exit(self):
        matcher = RulesetMatcher(RULES)
        with matcher.session() as session:
            session.feed(DATA)
        assert session.finished
        assert session.result() == matcher.scan(DATA)

    def test_end_anchor_not_emitted_mid_stream(self):
        matcher = RulesetMatcher([("tail", "xyz$")])
        session = matcher.session()
        assert session.feed(b"xyz..") == []     # xyz matched, but not at end
        assert session.feed(b"xyz") == []       # withheld until finish
        final = session.finish()
        assert match_dict(final) == {"tail": [8]}

    def test_lazy_matches_iteration(self):
        matcher = RulesetMatcher(RULES)
        session = matcher.session()
        events = []
        consumed = []

        def chunks():
            for chunk in chunked(DATA, 5):
                consumed.append(chunk)
                yield chunk

        for match in session.matches(chunks()):
            events.append((match.rule, match.end, len(consumed)))
        # lazy: the "hit" event arrived before all chunks were consumed
        hit = next(e for e in events if e[0] == "hit")
        assert hit[2] < len(chunked(DATA, 5))
        assert match_dict(
            [Match(r, e) for r, e, _ in events]
        ) == matcher.scan(DATA).matches

    def test_stream_tag_carried_on_every_match(self):
        session = RulesetMatcher(RULES).session(stream="client-42")
        out = session.feed(DATA) + session.finish()
        assert out and all(m.stream == "client-42" for m in out)

    def test_unnamed_reports_surface_with_sentinel(self):
        matcher = RulesetMatcher([("", "abc")])
        out = matcher.session().feed(b"zabc")
        assert [m.rule for m in out] == [""]  # falsy-but-real id preserved
        assert UNNAMED_REPORT == "<unnamed>"

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            MatchSession([])


class TestSinks:
    def test_callback_sees_each_match_once_in_order(self):
        seen = []
        matcher = RulesetMatcher(RULES)
        with matcher.session(on_match=seen.append) as session:
            for chunk in chunked(DATA, 4):
                session.feed(chunk)
        returned = matcher.scan(DATA).matches
        assert match_dict(seen) == returned
        assert len(seen) == len({(m.rule, m.end) for m in seen})  # no dupes
        assert [m.end for m in seen] == sorted(m.end for m in seen)

    def test_collector_sink(self):
        sink = CollectorSink()
        matcher = RulesetMatcher(RULES)
        with matcher.session(on_match=sink) as session:
            session.feed(DATA)
        assert sink.by_rule() == matcher.scan(DATA).matches

    def test_queue_sink_bounded_drain(self):
        sink = QueueSink(maxsize=64)
        matcher = RulesetMatcher(RULES)
        with matcher.session(on_match=sink) as session:
            session.feed(DATA)
            drained = sink.drain()
        drained += sink.drain()
        assert match_dict(drained) == matcher.scan(DATA).matches
        assert sink.drain() == []
        assert isinstance(sink.queue, queue.Queue)


class TestQueueSinkOverflow:
    """Overflow at a full bounded queue is an explicit, named policy --
    never a silent drop (the serving backpressure path depends on it)."""

    @staticmethod
    def matches(n):
        return [Match(rule="r", end=end) for end in range(1, n + 1)]

    def test_block_is_the_default_and_is_lossless(self):
        sink = QueueSink(maxsize=8)
        assert sink.overflow == "block"
        # a consumer thread drains while the producer blocks on put
        import threading

        drained: list[Match] = []
        consumer = threading.Thread(
            target=lambda: [
                drained.append(sink.queue.get()) for _ in range(32)
            ]
        )
        consumer.start()
        for match in self.matches(32):
            sink(match)  # blocks at 8 queued until the consumer catches up
        consumer.join(timeout=10)
        assert len(drained) == 32 and sink.dropped == 0

    def test_drop_oldest_keeps_the_freshest_tail(self):
        sink = QueueSink(maxsize=4, overflow="drop_oldest")
        for match in self.matches(10):
            sink(match)
        assert [m.end for m in sink.drain()] == [7, 8, 9, 10]
        assert sink.dropped == 6  # loss is observable, not silent

    def test_drop_oldest_never_drops_below_capacity(self):
        sink = QueueSink(maxsize=4, overflow="drop_oldest")
        for match in self.matches(4):
            sink(match)
        assert sink.dropped == 0

    def test_raise_policy_propagates_queue_full(self):
        sink = QueueSink(maxsize=2, overflow="raise")
        sink(Match(rule="r", end=1))
        sink(Match(rule="r", end=2))
        with pytest.raises(queue.Full):
            sink(Match(rule="r", end=3))
        assert [m.end for m in sink.drain()] == [1, 2]
        assert sink.dropped == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="overflow policy"):
            QueueSink(maxsize=2, overflow="yolo")

    def test_unbounded_queue_ignores_policy_pressure(self):
        sink = QueueSink()  # maxsize=0: never full, block degenerates
        for match in self.matches(100):
            sink(match)
        assert len(sink.drain()) == 100


class TestMatcherProtocol:
    def test_both_matchers_satisfy_protocol(self):
        assert isinstance(RulesetMatcher(RULES), Matcher)
        assert isinstance(ShardedMatcher(RULES, shards=2), Matcher)

    def test_protocol_driven_code_is_front_end_agnostic(self):
        def serve(matcher: Matcher) -> dict:
            with matcher.session(stream="s") as session:
                for chunk in chunked(DATA, 6):
                    session.feed(chunk)
            return session.result().matches

        single = serve(RulesetMatcher(RULES))
        sharded = serve(ShardedMatcher(RULES, shards=3))
        assert single == sharded == RulesetMatcher(RULES).scan(DATA).matches


class TestAcrossBackendsAndShards:
    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("shards", [0, 2, 3])
    def test_session_equals_batch_every_backend(self, engine, shards):
        """Acceptance: sessions work identically over RulesetMatcher and
        ShardedMatcher on every engine."""
        if shards:
            matcher = ShardedMatcher(RULES, shards=shards)
        else:
            matcher = RulesetMatcher(RULES)
        want = matcher.scan(DATA, engine=engine)
        session = matcher.session(engine=engine)
        emitted = []
        for chunk in chunked(DATA, 7):
            emitted.extend(session.feed(chunk))
        emitted.extend(session.finish())
        assert match_dict(emitted) == want.matches
        assert session.result() == want

    @pytest.mark.parametrize("engine", available_engines())
    def test_emission_order_deterministic_across_backends(self, engine):
        """Regression: feed()/finish() emit identical offset-sorted
        Match lists on every backend (the old feed-list vs finish-set
        divergence is gone)."""
        matcher = RulesetMatcher(RULES, engine=engine)
        per_chunk = []
        session = matcher.session()
        for chunk in chunked(DATA, 5):
            per_chunk.append(session.feed(chunk))
        per_chunk.append(session.finish())
        flat = [m for batch in per_chunk for m in batch]
        assert all(
            batch == sorted(batch, key=lambda m: m.sort_key)
            for batch in per_chunk
        )
        # identical events regardless of backend (compare to stream)
        baseline_session = RulesetMatcher(RULES, engine="stream").session()
        baseline = []
        for chunk in chunked(DATA, 5):
            baseline.extend(baseline_session.feed(chunk))
        baseline.extend(baseline_session.finish())
        assert flat == baseline


SUITES = [
    (snort_like, 10),
    (suricata_like, 10),
    (protomata_like, 8),
    (spamassassin_like, 10),
    (clamav_like, 8),
]


class TestSuiteDifferential:
    @pytest.mark.parametrize("factory, total", SUITES)
    def test_session_differential_against_batch(self, factory, total):
        """Acceptance: session emission == batch path on all five
        synthetic suites (matches, stats-derived energy, reports)."""
        suite = factory(total=total, seed=23)
        background = stream_for_style(suite.input_style, 3000, seed=4)
        data = plant_matches(
            background, [r.pattern for r in suite.rules], seed=5
        )
        matcher = RulesetMatcher(suite.patterns())
        want = matcher.scan(data)
        collected = []
        with matcher.session(on_match=collected.append) as session:
            for chunk in chunked(data, 701):
                session.feed(chunk)
        assert match_dict(collected) == want.matches
        # exact ScanResult equality vs the batch path at the same
        # chunking (single-buffer energy can differ in the last float
        # bits by reassociation of the weighted-op sum)
        assert session.result() == matcher.scan_stream(chunked(data, 701))
        assert session.result().matches == want.matches
        assert session.result().energy_nj_per_byte == pytest.approx(
            want.energy_nj_per_byte
        )
        # sharded sessions agree too
        sharded = ShardedMatcher(suite.patterns(), shards=2)
        assert sharded.scan_stream(chunked(data, 701)).matches == want.matches
