"""Session-oriented matching: incremental ``Match`` events over any engine.

The paper's automata are *streaming* hardware -- the report vector
fires on the clock cycle that consumes a byte -- yet a batch API like
``scan()`` only hands results back after the whole stream is buffered
and finished.  This module is the serving-shaped surface over the same
engines: a **session** wraps one live scan of one logical stream and
emits first-class :class:`Match` events as soon as the hardware would
raise them, which is what multiplexing many long-lived client streams
over one compiled ruleset (the GPU/CRAM IDS serving shape) actually
needs.

The layer cake:

* :class:`Match` -- one report, fully resolved: facade rule id,
  **absolute** 1-based end offset (chunk boundaries invisible), the
  session's stream tag, and the raw hardware report code;
* :class:`MatchSession` -- a context manager over one stream:
  ``feed(chunk)`` returns the chunk's newly observed matches (sorted
  by offset), ``finish()`` returns the end-of-data matches
  (``$``-anchored rules can only be gated once the stream length is
  known), ``matches(chunks)`` iterates lazily, ``result()`` assembles
  the classic :class:`~repro.matching.ScanResult`;
* :class:`Matcher` -- the protocol
  :class:`~repro.matching.RulesetMatcher`, the cluster's
  :class:`~repro.serve.cluster.RemoteShardedMatcher` and the in-process
  :class:`~repro.engine.parallel.ShardedMatcher` implement, so sharded
  sessions (per-shard sub-scanners, merged incremental emission) are
  indistinguishable from single-matcher ones;
* :class:`MultiStreamScanner` -- demultiplexes many interleaved tagged
  streams over one compiled ruleset with per-stream isolation: the
  "one ruleset, N clients" path;
* sinks -- any callable accepts matches as they are emitted
  (``on_match=``); :class:`CollectorSink` accumulates,
  :class:`QueueSink` bridges to consumer threads through a bounded
  queue with an explicit overflow policy (``block`` / ``drop_oldest``
  / ``raise``) and an observable dropped-count.

Every engine (``stream``, ``block`` and the ``reference`` oracle)
works under a session: scanners already report incrementally from
``feed``, as ``(end, report index)`` columns, and the session layer
gates, orders and names them (``$`` gating, :data:`UNNAMED_REPORT`)
through one
:class:`ReportLayout` per matcher, building each :class:`Match` once.
The batch entry points (``scan``, ``scan_stream``, ``scan_many``,
``matched_rules``) are thin wrappers over sessions, so both surfaces
are one code path.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from .engine.block import numpy_or_none
from .engine.scanner import Chunk, ReportColumns, coerce_chunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .matching import ResourceSummary, ScanResult

__all__ = [
    "UNNAMED_REPORT",
    "Match",
    "match_dict",
    "MatchSession",
    "SessionPart",
    "ReportLayout",
    "Matcher",
    "SessionScans",
    "MultiStreamScanner",
    "CollectorSink",
    "QueueSink",
]

#: Rule id assigned to reports whose node carries no ``report_id``.
#: Hand-built networks may leave ``report_id`` as ``None``; the facade
#: surfaces those deterministically under this single sentinel key
#: instead of silently conflating them with falsy-but-real ids (``""``
#: stays ``""``).
UNNAMED_REPORT = "<unnamed>"


@dataclass(frozen=True, slots=True)
class Match:
    """One match event, fully resolved by the facade.

    Replaces the raw ``(position, report_id)`` tuples of the scanner
    layer: the rule id is never ``None`` (unnamed reports surface as
    :data:`UNNAMED_REPORT`), the offset is absolute across chunk
    boundaries, and the event knows which tagged stream it came from.

    >>> from repro import Match
    >>> match = Match(rule="hit", end=7, stream="conn-1")
    >>> match.sort_key
    (7, 'hit', 'conn-1', '')
    """

    #: facade rule id (:data:`UNNAMED_REPORT` for unnamed reports)
    rule: str
    #: 1-based end offset into the *stream* (not the chunk): a match
    #: ended after the ``end``-th byte fed to the session
    end: int
    #: tag of the session's stream (``None`` for untagged sessions)
    stream: Optional[str] = None
    #: raw hardware report id (``None`` when the node was unnamed)
    code: Optional[str] = None
    #: ruleset generation the match was scanned against (stamped by the
    #: serving layer's hot-reload path; ``None`` for offline scans)
    generation: Optional[int] = None

    @property
    def sort_key(self) -> tuple[int, str, str, str]:
        """Deterministic ordering: offset first, then rule/stream/code."""
        return (self.end, self.rule, self.stream or "", self.code or "")


def match_dict(matches: Iterable[Match]) -> dict[str, list[int]]:
    """Collapse match events to the classic ``{rule: sorted distinct
    end offsets}`` shape of :attr:`~repro.matching.ScanResult.matches`.

    >>> from repro import Match, match_dict
    >>> match_dict([Match("r", 5), Match("r", 3), Match("q", 2)])
    {'r': [3, 5], 'q': [2]}
    """
    ends: dict[str, set[int]] = {}
    for match in matches:
        ends.setdefault(match.rule, set()).add(match.end)
    return {rule: sorted(positions) for rule, positions in ends.items()}


# -- sinks -----------------------------------------------------------------
#: Anything callable with one :class:`Match` can be an ``on_match`` sink.
MatchSink = Callable[[Match], None]


class CollectorSink:
    """Sink that accumulates every emitted match, in emission order.

    >>> from repro import CollectorSink, RulesetMatcher
    >>> sink = CollectorSink()
    >>> with RulesetMatcher([("hit", "abc")]).session(on_match=sink) as s:
    ...     _ = s.feed(b"zabc")
    >>> sink.by_rule()
    {'hit': [4]}
    """

    def __init__(self) -> None:
        self.matches: list[Match] = []

    def __call__(self, match: Match) -> None:
        self.matches.append(match)

    def by_rule(self) -> dict[str, list[int]]:
        """Collected matches as ``{rule: sorted end offsets}``."""
        return match_dict(self.matches)


#: overflow policies a bounded :class:`QueueSink` can apply when the
#: queue is full at emission time
QUEUE_OVERFLOW_POLICIES = ("block", "drop_oldest", "raise")


class QueueSink:
    """Sink that bridges match emission to consumer threads.

    Matches are ``put`` on a bounded :class:`queue.Queue`.  What
    happens when the queue is **full** (``maxsize > 0``) is an
    explicit, named policy -- never a silent drop -- because serving
    backpressure hangs off this choice:

    * ``"block"`` (default) -- ``put`` blocks the feeding thread until
      the consumer catches up: lossless backpressure, a slow consumer
      throttles the scan instead of growing memory without bound.
      Single-threaded callers should :meth:`drain` between feeds (or
      leave ``maxsize=0``, unbounded).
    * ``"drop_oldest"`` -- evict the oldest queued match to admit the
      new one (a bounded tail of the freshest matches); every eviction
      increments :attr:`dropped`, so loss is observable, not silent.
    * ``"raise"`` -- propagate :class:`queue.Full` to the emitter
      (fail-fast for callers that treat overflow as a logic error).

    >>> from repro.session import Match, QueueSink
    >>> sink = QueueSink(maxsize=2, overflow="drop_oldest")
    >>> for end in (1, 2, 3):
    ...     sink(Match(rule="r", end=end))
    >>> [match.end for match in sink.drain()], sink.dropped
    ([2, 3], 1)
    """

    def __init__(self, maxsize: int = 0, overflow: str = "block") -> None:
        if overflow not in QUEUE_OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {overflow!r}; "
                f"choose from {QUEUE_OVERFLOW_POLICIES}"
            )
        self.queue: "queue.Queue[Match]" = queue.Queue(maxsize)
        self.overflow = overflow
        #: matches evicted under the ``drop_oldest`` policy so far
        self.dropped = 0

    def __call__(self, match: Match) -> None:
        if self.overflow == "block":
            self.queue.put(match)
            return
        while True:
            try:
                self.queue.put_nowait(match)
                return
            except queue.Full:
                if self.overflow == "raise":
                    raise
                # drop_oldest: evict one, count it, retry the put (the
                # consumer may race us for the eviction; that is fine,
                # the queue only gets emptier)
                try:
                    self.queue.get_nowait()
                except queue.Empty:
                    continue
                self.dropped += 1

    def drain(self) -> list[Match]:
        """Pop everything currently queued without blocking."""
        out: list[Match] = []
        while True:
            try:
                out.append(self.queue.get_nowait())
            except queue.Empty:
                return out


# -- the session -----------------------------------------------------------
@dataclass(frozen=True)
class SessionPart:
    """One scanner's slice of a session (one per ruleset shard).

    Built by :meth:`Matcher.session` implementations, not by users:
    ``scanner`` is a fresh backend scanner, ``end_anchored`` the rule
    ids whose reports are gated to end-of-data, and ``finalize`` the
    owner's ``(reports, bytes_scanned, stats) -> ScanResult`` closure
    (which applies report naming, ``$`` gating, and energy pricing).
    ``finalize`` may be omitted for event-only sessions (e.g.
    :meth:`~repro.matching.PatternMatcher.finditer`), which then cannot
    produce a :meth:`MatchSession.result`.
    """

    scanner: Any
    end_anchored: frozenset
    finalize: Optional[Callable[..., "ScanResult"]] = None


class ReportLayout:
    """How a session turns its parts' report columns into :class:`Match`
    events, built once per matcher from the parts' report-id tables and
    ``$`` gates.

    Part ``p``'s report index ``i`` is the session-wide index ``g =
    offsets[p] + i``.  Every ``g`` has a *rank*, its place in
    :attr:`Match.sort_key` order of ``(rule, code)`` across all parts,
    so within one session (one stream tag) the integer key ``end * size
    + rank`` sorts exactly as :attr:`Match.sort_key` does -- across a
    :class:`~repro.engine.parallel.ShardedMatcher`'s shards too.
    ``rules`` and ``codes`` are indexed by rank; ``gated`` by ``g``
    marks the ``$``-anchored rules.
    """

    __slots__ = ("offsets", "size", "rank", "gated", "any_gated", "rules", "codes", "_vector")

    def __init__(self, parts: Sequence[SessionPart]):
        codes: list[Optional[str]] = []
        gated: list[bool] = []
        self.offsets: list[int] = []
        for part in parts:
            ids = part.scanner.tables.report_ids
            self.offsets.append(len(codes))
            codes.extend(ids)
            gated.extend(_rule_of(code) in part.end_anchored for code in ids)
        order = sorted(
            range(len(codes)), key=lambda g: (_rule_of(codes[g]), codes[g] or "")
        )
        rank = [0] * len(codes)
        for r, g in enumerate(order):
            rank[g] = r
        self.size = len(codes) or 1
        self.rules = [_rule_of(codes[g]) for g in order]
        self.codes = [codes[g] for g in order]
        self.rank = rank
        self.gated = gated
        self.any_gated = any(gated)
        np = numpy_or_none()
        # NumPy with rank and gate as arrays; without NumPy, order() loops
        self._vector = None if np is None else (
            np, np.array(rank, dtype=np.int64), np.array(gated, dtype=bool)
        )

    def order(
        self, feeds: Sequence[ReportColumns], n: int
    ) -> tuple[list[int], list[int], list[int]]:
        """One feed's columns from every part, merged: the ends and
        ranks of the ungated reports in :attr:`Match.sort_key` order,
        and the sorted ranks of the gated ones ending at ``n`` (the
        stream length after this feed) -- the only ones ``finish()``
        could emit."""
        if not any(len(columns) for columns in feeds):
            return [], [], []
        size = self.size
        if self._vector is None:
            keys: list[int] = []
            held: list[int] = []
            rank, gated = self.rank, self.gated
            for columns, offset in zip(feeds, self.offsets):
                for end, index in zip(columns.ends.tolist(), columns.index.tolist()):
                    g = offset + index
                    if not gated[g]:
                        keys.append(end * size + rank[g])
                    elif end == n:
                        held.append(rank[g])
            keys.sort()
            held.sort()
            return [key // size for key in keys], [key % size for key in keys], held
        np, rank, gated = self._vector
        if len(feeds) == 1:
            ends = np.asarray(feeds[0].ends)
            g = np.asarray(feeds[0].index)
        else:
            ends = np.concatenate([np.asarray(columns.ends) for columns in feeds])
            g = np.concatenate(
                [np.asarray(c.index) + offset for c, offset in zip(feeds, self.offsets)]
            )
        held = []
        if self.any_gated:
            gate = gated[g]
            if gate.any():
                held = np.sort(rank[g[gate & (ends == n)]]).tolist()
                ends, g = ends[~gate], g[~gate]
        ends, ranks = np.divmod(np.sort(ends * size + rank[g]), size)
        return ends.tolist(), ranks.tolist(), held


def _rule_of(code: Optional[str]) -> str:
    return code if code is not None else UNNAMED_REPORT


class MatchSession:
    """One live scan of one logical stream, emitting :class:`Match` events.

    Obtain via :meth:`Matcher.session`; usable as a context manager
    (``finish()`` runs on clean exit).  Both :meth:`feed` and
    :meth:`finish` return the *newly* emitted matches as a list sorted
    by :attr:`Match.sort_key` (offset first) -- unlike the raw scanner
    layer, the two never disagree on type or ordering -- and every
    match is also pushed to the ``on_match`` sink exactly once, in that
    same order.

    ``$``-anchored rules are the reason ``finish()`` exists: their
    reports are only valid at end-of-data, which a streaming scan knows
    at finish time, so those matches are withheld from :meth:`feed` and
    emitted (if the stream really ended there) by :meth:`finish`.  All
    other facade semantics (1-based absolute end offsets, no
    zero-length matches, :data:`UNNAMED_REPORT` naming) match the batch
    entry points exactly -- ``scan``/``scan_stream`` are wrappers over
    this class.

    >>> from repro import RulesetMatcher
    >>> session = RulesetMatcher([("hit", "abc")]).session()
    >>> session.feed(b"xxab")       # match not complete yet
    []
    >>> [(m.rule, m.end) for m in session.feed(b"c..abc")]
    [('hit', 5), ('hit', 10)]
    >>> session.finish()
    []
    """

    def __init__(
        self,
        parts: Sequence[SessionPart],
        *,
        stream: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
        layout: Optional[ReportLayout] = None,
    ):
        if not parts:
            raise ValueError("a session needs at least one scanner")
        self._parts = list(parts)
        #: tag carried by every match this session emits
        self.stream = stream
        #: sink called once per emitted match, in emission order
        self.on_match = on_match
        self._bytes = 0
        self._finished = False
        self._result: Optional["ScanResult"] = None
        # built from the parts on first feed unless the matcher kept one
        self._layout = layout
        # ranks of the gated reports ending on the last byte of the last
        # non-empty feed: all that finish() can emit
        self._held: list[int] = []

    # -- introspection -----------------------------------------------------
    @property
    def bytes_fed(self) -> int:
        """Total stream bytes consumed so far."""
        return self._bytes

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def scanners(self) -> list:
        """The live backend scanners (one per ruleset shard)."""
        return [part.scanner for part in self._parts]

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.finish()
        return False

    # -- streaming ---------------------------------------------------------
    def _emit(self, matches: list[Match]) -> list[Match]:
        if self.on_match is not None:
            for match in matches:
                self.on_match(match)
        return matches

    def feed(self, chunk: Chunk) -> list[Match]:
        """Consume one chunk; return its newly observed matches.

        The list is sorted by offset and covers every shard; matches
        already emitted by earlier chunks are not repeated, and
        ``$``-anchored rules are withheld until :meth:`finish`.
        """
        if self._finished:
            raise RuntimeError(
                "feed() after finish(); open a new session to scan again"
            )
        chunk = coerce_chunk(chunk)
        out = self._feed_shards(chunk)
        self._bytes += len(chunk)
        return self._emit(out)

    def finish(self) -> list[Match]:
        """Mark end-of-data; return the matches it unlocks.

        Emits the ``$``-anchored matches whose end offset is the final
        stream length (everything else already came out of
        :meth:`feed`).  Idempotent: a second call returns ``[]``.
        """
        if self._finished:
            return []
        out = self._finish_shards()
        self._finished = True
        return self._emit(out)

    def matches(self, chunks: Iterable[Chunk]) -> Iterator[Match]:
        """Lazily scan an iterable of chunks, yielding matches as they
        are observed (and the end-gated ones after the last chunk)."""
        for chunk in chunks:
            yield from self.feed(chunk)
        yield from self.finish()

    def result(self) -> "ScanResult":
        """The classic batch :class:`~repro.matching.ScanResult` for
        everything this session scanned (finishing it if needed);
        identical -- reports, stats, energy -- to the batch entry
        points, which are implemented on top of this method."""
        if not self._finished:
            self.finish()
        if self._result is None:
            self._result = self._merge_result()
        return self._result

    # -- the shard-touching hooks ------------------------------------------
    # Everything above is transport-blind; these three are the only
    # places a session touches its shards.  The defaults drive local
    # backend scanners; the cluster session overrides exactly these to
    # go over the wire instead.
    def _feed_shards(self, chunk: bytes) -> list[Match]:
        """Run ``chunk`` through every shard; the new matches in
        :attr:`Match.sort_key` order."""
        feeds = [part.scanner.feed(chunk) for part in self._parts]
        if self._layout is None:
            self._layout = ReportLayout(self._parts)
        ends, ranks, held = self._layout.order(feeds, self._bytes + len(chunk))
        if len(chunk):
            self._held = held
        return self._matches(ends, ranks)

    def _finish_shards(self) -> list[Match]:
        """End the stream on every shard; the matches that unlocks."""
        for part in self._parts:
            part.scanner.finish()
        if not self._held:
            return []
        return self._matches([self._bytes] * len(self._held), self._held)

    def _matches(self, ends: list[int], ranks: list[int]) -> list[Match]:
        layout = self._layout
        rules, codes, tag = layout.rules, layout.codes, self.stream
        return [Match(rules[r], end, tag, codes[r]) for end, r in zip(ends, ranks)]

    def _merge_result(self) -> "ScanResult":
        """One :class:`~repro.matching.ScanResult` across all shards."""
        from .engine.parallel import merge_scan_results

        if any(part.finalize is None for part in self._parts):
            raise RuntimeError(
                "this session is event-only (no ScanResult finalizer)"
            )
        return merge_scan_results(
            [
                part.finalize(part.scanner.reports, self._bytes, part.scanner.stats)
                for part in self._parts
            ]
        )


# -- the matcher protocol --------------------------------------------------
@runtime_checkable
class Matcher(Protocol):
    """What every rule-set matcher front-end exposes.

    Implemented by :class:`~repro.matching.RulesetMatcher` (one
    compiled network), :class:`~repro.serve.cluster.RemoteShardedMatcher`
    (round-robin shards spread over M network match servers -- the one
    way to split a ruleset for speed), and
    :class:`~repro.engine.parallel.ShardedMatcher` (the same shard
    policy in one process, the cluster's reference): one session/scan
    surface, so serving code is written once against this protocol and
    the backing -- one network or a cluster -- is swappable
    configuration.
    """

    engine: str

    @property
    def skipped(self) -> list[tuple[str, str]]: ...

    def resources(self) -> "ResourceSummary": ...

    def session(
        self,
        engine: Optional[str] = None,
        *,
        stream: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
    ) -> MatchSession: ...

    def scan(self, data: Chunk, engine: Optional[str] = None) -> "ScanResult": ...

    def scan_stream(
        self, chunks: Iterable[Chunk], engine: Optional[str] = None
    ) -> "ScanResult": ...

    def scan_many(
        self, streams: Sequence[Chunk], engine: Optional[str] = None
    ) -> list["ScanResult"]: ...

    def matched_rules(self, data: Chunk) -> set[str]: ...


class SessionScans:
    """The batch entry points, written once over :meth:`session`.

    Every :class:`Matcher` implementation inherits these, so a batch
    scan and a hand-driven session are one code path whatever the
    backing -- one compiled network, in-process shards, or a cluster.
    """

    def scan(self, data: Chunk, engine: Optional[str] = None) -> "ScanResult":
        """Run one in-memory buffer through the matcher.

        ``engine`` overrides the matcher's default (any registered
        backend name, or ``"auto"``); results are identical on every
        backend.  Equivalent to a one-chunk :meth:`session`.
        """
        return self.scan_stream((data,), engine=engine)

    def scan_stream(
        self, chunks: Iterable[Chunk], engine: Optional[str] = None
    ) -> "ScanResult":
        """Scan a stream delivered as an iterable of chunks (consumed
        exactly once).

        Enable vectors, counters, and bit-vector registers carry across
        chunk boundaries, so the result equals :meth:`scan` of the
        concatenated stream (``$`` gating included -- it is applied
        after the last chunk, when the stream length is known).  A thin
        wrapper over :meth:`session`; use the session directly when the
        per-chunk :class:`Match` events matter.
        """
        with self.session(engine=engine) as session:
            for chunk in chunks:
                session.feed(chunk)
        return session.result()

    def scan_many(
        self, streams: Sequence[Chunk], engine: Optional[str] = None
    ) -> list["ScanResult"]:
        """Scan a batch of independent streams, one session each, one
        result each (in order).  Serial on every matcher: to scan in
        parallel, run more processes -- a fleet or a cluster."""
        return [self.scan(stream, engine=engine) for stream in streams]

    def matched_rules(self, data: Chunk) -> set[str]:
        """Convenience: just the ids of rules that matched."""
        return self.scan(data).matched_rules()


# -- multi-stream serving --------------------------------------------------
class MultiStreamScanner:
    """Demultiplex many interleaved tagged streams over one ruleset.

    The serving shape the ROADMAP's north star needs: compile once,
    then interleave chunks from any number of logical client streams --
    ``feed(tag, chunk)`` routes each chunk to that tag's
    :class:`MatchSession` (created on first sight, all sharing the
    matcher's compiled tables), and every emitted :class:`Match`
    carries its stream tag, so per-stream results never bleed into each
    other no matter how chunks interleave::

        mux = MultiStreamScanner(matcher)
        for tag, chunk in traffic:          # arbitrary interleaving
            for match in mux.feed(tag, chunk):
                route_alert(match.stream, match.rule, match.end)
        results = mux.results()             # {tag: ScanResult}

    Works over any :class:`Matcher` (sharded included) and any
    engine.  ``on_match`` observes every stream's matches
    through one sink (each match is tagged); per-stream sinks can be
    attached by creating the session first via :meth:`session`.

    >>> from repro import MultiStreamScanner, RulesetMatcher
    >>> mux = MultiStreamScanner(RulesetMatcher([("hit", "abc")]))
    >>> pairs = [("s1", b"ab"), ("s2", b"abc"), ("s1", b"c")]
    >>> {tag: r.matches for tag, r in mux.scan_tagged(pairs).items()}
    {'s1': {'hit': [3]}, 's2': {'hit': [3]}}
    """

    def __init__(
        self,
        matcher: Matcher,
        engine: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
    ):
        self.matcher = matcher
        self.engine = engine
        self.on_match = on_match
        self._sessions: dict[str, MatchSession] = {}

    @property
    def streams(self) -> list[str]:
        """Tags seen so far, in first-seen order."""
        return list(self._sessions)

    def session(self, tag: str) -> MatchSession:
        """The tag's session, created on first use."""
        session = self._sessions.get(tag)
        if session is None:
            session = self.matcher.session(
                engine=self.engine, stream=tag, on_match=self.on_match
            )
            self._sessions[tag] = session
        return session

    def feed(self, tag: str, chunk: Chunk) -> list[Match]:
        """Route one chunk to stream ``tag``; return its new matches."""
        return self.session(tag).feed(chunk)

    def finish(self, tag: str) -> list[Match]:
        """End stream ``tag``; return the matches end-of-data unlocks."""
        return self._session_of(tag).finish()

    def finish_all(self) -> list[Match]:
        """End every open stream; return the unlocked matches, sorted
        by offset (ties broken by rule, then stream tag)."""
        out: list[Match] = []
        for session in self._sessions.values():
            out.extend(session.finish())
        out.sort(key=lambda match: match.sort_key)
        return out

    def result(self, tag: str) -> "ScanResult":
        """Stream ``tag``'s :class:`~repro.matching.ScanResult`
        (finishing it if still open)."""
        return self._session_of(tag).result()

    def results(self) -> dict[str, "ScanResult"]:
        """Per-stream results for every stream seen (finishing open
        ones), keyed by tag."""
        return {tag: session.result() for tag, session in self._sessions.items()}

    def scan_tagged(
        self, pairs: Iterable[tuple[str, Chunk]]
    ) -> dict[str, "ScanResult"]:
        """One-shot convenience: consume an interleaved ``(tag, chunk)``
        iterable, finish every stream, and return per-stream results."""
        for tag, chunk in pairs:
            self.feed(tag, chunk)
        self.finish_all()
        return self.results()

    def _session_of(self, tag: str) -> MatchSession:
        try:
            return self._sessions[tag]
        except KeyError:
            raise KeyError(
                f"unknown stream {tag!r}; streams seen: {sorted(self._sessions)}"
            ) from None
