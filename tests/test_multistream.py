"""MultiStreamScanner: one compiled ruleset, N interleaved client streams.

Acceptance: >= 64 interleaved tagged streams served over one compiled
ruleset with per-stream match isolation, plus the hypothesis property
that any interleaving of N tagged streams produces exactly the matches
of scanning each stream alone -- on every engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.backends import available_engines
from repro.engine.parallel import ShardedMatcher
from repro.matching import RulesetMatcher
from repro.session import CollectorSink, Match, MultiStreamScanner, match_dict

RULES = [
    ("hit", r"abc"),
    ("num", r"[0-9]{3,5}"),
    ("tail", r"xyz$"),
    ("ctr", r"[^a]a{2,4}b"),
]


class TestMultiStreamScanner:
    def test_per_stream_isolation(self):
        matcher = RulesetMatcher(RULES)
        mux = MultiStreamScanner(matcher)
        # split "abc" across stream a's chunks; interleave b between them
        mux.feed("a", b"za")
        mux.feed("b", b"12")
        mux.feed("a", b"bc")
        mux.feed("b", b"34...")
        results = mux.scan_tagged([])  # finish everything, collect
        assert results["a"].matches == {"hit": [4]}
        assert results["b"].matches == {"num": [3, 4]}

    def test_matches_tagged_with_their_stream(self):
        sink = CollectorSink()
        mux = MultiStreamScanner(RulesetMatcher(RULES), on_match=sink)
        mux.feed("left", b"abc")
        mux.feed("right", b"999")
        mux.finish_all()
        tags = {m.rule: m.stream for m in sink.matches}
        assert tags == {"hit": "left", "num": "right"}

    def test_streams_and_unknown_tag(self):
        mux = MultiStreamScanner(RulesetMatcher(RULES))
        mux.feed("s1", b"x")
        assert mux.streams == ["s1"]
        with pytest.raises(KeyError):
            mux.finish("nope")

    def test_finish_all_sorted_by_offset(self):
        mux = MultiStreamScanner(RulesetMatcher(RULES))
        mux.feed("b", b"..xyz")
        mux.feed("a", b"xyz")
        final = mux.finish_all()
        assert final == sorted(final, key=lambda m: m.sort_key)
        assert {(m.stream, m.end) for m in final} == {("a", 3), ("b", 5)}

    def test_result_finishes_single_stream(self):
        mux = MultiStreamScanner(RulesetMatcher(RULES))
        mux.feed("s", b"abc xyz")
        result = mux.result("s")
        assert result.matches == {"hit": [3], "tail": [7]}

    @pytest.mark.parametrize("shards", [0, 3])
    def test_serves_64_interleaved_streams(self, shards):
        """Acceptance: >= 64 interleaved tagged streams over one
        compiled ruleset (single and sharded), each isolated."""
        if shards:
            matcher = ShardedMatcher(RULES, shards=shards)
        else:
            matcher = RulesetMatcher(RULES)
        n = 64
        payloads = {
            f"client-{i}": b"ab" + b"c" * (i % 2) + str(i).encode() * 3 + b" xyz"
            for i in range(n)
        }
        mux = MultiStreamScanner(matcher)
        # round-robin byte-sized chunks: maximal interleaving
        offsets = {tag: 0 for tag in payloads}
        progressed = True
        while progressed:
            progressed = False
            for tag, payload in payloads.items():
                start = offsets[tag]
                if start < len(payload):
                    mux.feed(tag, payload[start : start + 3])
                    offsets[tag] = start + 3
                    progressed = True
        results = mux.scan_tagged([])
        assert len(results) == n
        for tag, payload in payloads.items():
            assert results[tag] == matcher.scan(payload), tag
        # tables were compiled once and shared by every session
        if not shards:
            scanner_tables = {
                id(s.tables)
                for session in mux._sessions.values()
                for s in session.scanners
            }
            assert scanner_tables == {id(matcher.tables)}


class TestInterleavingProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        payloads=st.lists(
            st.binary(max_size=24).map(
                lambda raw: bytes(b"abcxyz 123"[b % 10] for b in raw)
            ),
            min_size=1,
            max_size=5,
        ),
        chunk_sizes=st.lists(
            st.integers(min_value=1, max_value=7), min_size=1, max_size=8
        ),
        data=st.data(),
    )
    def test_interleaved_equals_isolated(self, payloads, chunk_sizes, data):
        """Property: N tagged streams scanned interleaved produce
        identical Match sets to scanning each stream alone, on every
        engine."""
        for engine in available_engines():
            matcher = _matcher_for(engine)
            # cut each payload into chunks, then interleave by a
            # hypothesis-chosen schedule
            pending = {
                f"s{i}": _cut(payload, chunk_sizes)
                for i, payload in enumerate(payloads)
            }
            mux = MultiStreamScanner(matcher, engine=engine)
            live = [tag for tag, chunks in pending.items() if chunks]
            while live:
                index = data.draw(
                    st.integers(min_value=0, max_value=len(live) - 1)
                )
                tag = live[index]
                mux.feed(tag, pending[tag].pop(0))
                if not pending[tag]:
                    live.remove(tag)
            for tag in pending:
                mux.session(tag)  # make empty streams exist too
            results = mux.results()
            for i, payload in enumerate(payloads):
                tag = f"s{i}"
                alone = matcher.scan(payload, engine=engine)
                assert results[tag].matches == alone.matches, (engine, tag)


_MATCHERS: dict = {}


def _matcher_for(engine: str) -> RulesetMatcher:
    matcher = _MATCHERS.get(engine)
    if matcher is None:
        matcher = RulesetMatcher(RULES, engine=engine)
        _MATCHERS[engine] = matcher
    return matcher


def _cut(payload: bytes, sizes: list[int]) -> list[bytes]:
    chunks = []
    offset = 0
    i = 0
    while offset < len(payload):
        size = sizes[i % len(sizes)]
        chunks.append(payload[offset : offset + size])
        offset += size
        i += 1
    return chunks
