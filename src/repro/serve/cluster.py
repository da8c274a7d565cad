"""Cluster scatter-gather: one logical matcher over N remote ruleset shards.

This is the one place a ruleset is split for speed: the round-robin
shard policy of :func:`~repro.engine.parallel.shard_rules` applied
**across servers**, so each shard scans on its own core (the in-process
:class:`~repro.engine.parallel.ShardedMatcher` applies the same policy
under one GIL, and is kept as this module's reference).  A
:class:`RemoteShardedMatcher` implements the ordinary
:class:`~repro.session.Matcher` protocol, but each shard is a remote
:class:`~repro.serve.server.MatchServer` reached through its own
:class:`~repro.serve.client.MatchClient` connection -- the "CRAM string
matching at scale" shape: ruleset capacity and scan throughput grow
horizontally with the shard count, while callers keep the one-matcher
surface (``session``/``scan``/``scan_many``/``MultiStreamScanner``).

How a session works over the wire:

* ``session()`` opens one tagged stream *on every shard* (the tag is
  made unique per session, so concurrent sessions never collide on a
  connection);
* ``feed(chunk)`` fans the same ``FEED`` frame out to all shards, then
  issues a ``PING`` barrier per shard.  ``PONG`` proves every earlier
  frame on that connection was processed and its matches flushed
  (protocol FIFO), so once all shards answered, this chunk's matches
  have fully arrived.  The per-shard streams are merged and sorted by
  :attr:`~repro.session.Match.sort_key` -- the same deterministic
  order an offline sharded session emits;
* ``finish()`` closes the stream on every shard (delivering the
  ``$``-gated matches, which the *servers* gate -- the client never
  needs the rulesets), and ``result()`` folds the per-shard
  :class:`~repro.matching.ScanResult`\\ s with
  :func:`~repro.engine.parallel.merge_scan_results`;
* :meth:`RemoteShardedMatcher.stats` folds per-shard ``STATS``
  snapshots with :func:`~repro.serve.stats.merge_server_stats`.

Failure semantics: a shard dying mid-flight raises
:class:`ClusterPartialResultError` naming the shard, its address, and
the streams affected; every match already delivered stays available on
the error's :attr:`~ClusterPartialResultError.delivered` map (no hang,
no silent loss).  Shard (re)attachment reuses
:meth:`MatchClient.connect`'s ``retries=N`` jittered backoff.

:class:`LocalShardCluster` runs the shard servers locally: it is a
:class:`~repro.serve.fleet.WorkerFleet` whose workers each hold one
bucket of the same dedup + round-robin policy as ``ShardedMatcher``
(:func:`~repro.compiler.pipeline.dedupe_rules` then
:func:`~repro.engine.parallel.shard_rules`) on their own port, so a
killed shard is respawned on its address and a ruleset reload
re-buckets.  Topology and sizing guidance: ``docs/SERVING.md``
"Cluster deployment".
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable, Optional, Sequence, Union

from ..compiler.pipeline import dedupe_rules
from ..engine.parallel import merge_scan_results, shard_rules
from ..session import Match, MatchSession, MatchSink, SessionScans
from .client import MatchClient, StreamSummary
from .fleet import WorkerFleet
from .protocol import validate_stream_tag
from .stats import ServerStats, merge_server_stats
from .worker import MatcherSpec

__all__ = [
    "ClusterPartialResultError",
    "LocalShardCluster",
    "RemoteShardedMatcher",
    "parse_endpoint",
]

#: default seconds a cluster operation may spend before the caller
#: gives up (generous: covers a full drain of queued frames per shard)
DEFAULT_OP_TIMEOUT = 60.0


def parse_endpoint(text: Union[str, tuple[str, int]]) -> tuple[str, int]:
    """Parse one ``host:port`` endpoint string (an already-split
    ``(host, port)`` pair passes through).

    >>> parse_endpoint("10.0.0.7:7401")
    ('10.0.0.7', 7401)
    >>> parse_endpoint("7401")
    ('127.0.0.1', 7401)
    """
    if not isinstance(text, str):
        return (text[0], text[1])
    host, sep, port = text.strip().rpartition(":")
    if not sep:
        host, port = "127.0.0.1", text.strip()
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"bad endpoint {text!r}: port {port!r} is not an int")
    if not host:
        host = "127.0.0.1"
    return (host, number)


class ClusterPartialResultError(RuntimeError):
    """A shard died mid-flight; the scatter-gather result is partial.

    The already-delivered matches are *not* lost: everything emitted
    before the failure was pushed to sinks in order and is preserved on
    :attr:`delivered` (keyed by stream tag).  The error names the first
    failed shard; simultaneous multi-shard failures are listed in
    :attr:`failures`.

    >>> err = ClusterPartialResultError(
    ...     op="FEED", shard=1, address=("10.0.0.7", 7401),
    ...     streams=("s1", "s2"), delivered={},
    ...     cause=ConnectionResetError("peer reset"))
    >>> print(err)                          # doctest: +ELLIPSIS
    shard 1 (10.0.0.7:7401) failed during FEED: peer reset; streams affected: s1, s2...
    """

    def __init__(
        self,
        *,
        op: str,
        shard: int,
        address: tuple[str, int],
        streams: tuple[str, ...],
        delivered: dict[str, list[Match]],
        cause: BaseException,
        failures: Optional[list[tuple[int, tuple[str, int], BaseException]]] = None,
    ):
        #: wire operation that surfaced the failure (OPEN/FEED/CLOSE/...)
        self.op = op
        #: index of the (first) failed shard
        self.shard = shard
        #: ``(host, port)`` of the failed shard
        self.address = address
        #: tags of the streams open at failure time
        self.streams = streams
        #: matches already emitted per affected stream, in emission order
        self.delivered = delivered
        #: underlying per-shard failure(s): ``(index, address, exc)``
        self.failures = failures or [(shard, address, cause)]
        affected = ", ".join(streams) if streams else "(none open)"
        super().__init__(
            f"shard {shard} ({address[0]}:{address[1]}) failed during {op}: "
            f"{cause}; streams affected: {affected} "
            f"(matches delivered before the failure are intact in .delivered)"
        )
        self.__cause__ = cause


class _LoopThread:
    """A private asyncio loop on a daemon thread.

    The cluster client keeps the synchronous :class:`Matcher` surface
    (so a ``MatchServer`` can even serve a ``RemoteShardedMatcher`` as
    a scatter-gather proxy); all socket work runs here and callers
    block on :meth:`run`.
    """

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-cluster", daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the loop; block for (and return) its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()
            raise TimeoutError(
                f"cluster operation did not complete within {timeout}s"
            ) from None

    def stop(self) -> None:
        if self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()


class ClusterSession(MatchSession):
    """One logical stream scanned by every shard of a cluster.

    A :class:`~repro.session.MatchSession` whose three shard-touching
    hooks go over the wire -- lifecycle, ordering and sink emission are
    the base class's -- so :class:`~repro.session.MultiStreamScanner`
    and the serving layer drive remote sessions exactly like local
    ones.  Built by :meth:`RemoteShardedMatcher.session`, not directly.
    """

    def __init__(
        self,
        matcher: "RemoteShardedMatcher",
        *,
        stream: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
    ):
        # one part per shard, like the base class -- here a part is the
        # cursor past the last event consumed from that shard's client
        super().__init__(
            [0] * matcher.shard_count, stream=stream, on_match=on_match
        )
        self._matcher = matcher
        self._wire = matcher._claim_wire_tag(stream)
        self._delivered: list[Match] = []
        self._summaries: Optional[list[StreamSummary]] = None
        self._shard_results: list = []
        matcher._fanout(
            lambda client: client.open(self._wire), op="OPEN", session=self
        )
        # registered only once open everywhere: a never-opened session
        # must not linger as an "affected stream" of every later failure
        matcher._open_sessions[self._wire] = self

    # -- introspection -----------------------------------------------------
    @property
    def scanners(self) -> list:
        """Empty: the backend scanners live in the shard servers."""
        return []

    @property
    def delivered(self) -> list[Match]:
        """Every match emitted so far, in emission order (survives a
        mid-flight shard failure)."""
        return list(self._delivered)

    def summaries(self) -> list[StreamSummary]:
        """Per-shard ``CLOSED`` summaries (after :meth:`finish`)."""
        if self._summaries is None:
            raise RuntimeError("stream not finished yet")
        return list(self._summaries)

    def _emit(self, matches: list[Match]) -> list[Match]:
        self._delivered.extend(super()._emit(matches))
        return matches

    # -- the shard-touching hooks, over the wire ---------------------------
    def _feed_shards(self, chunk: bytes) -> list[Match]:
        """Fan one chunk out to every shard in lockstep: a ``PING``
        barrier follows the ``FEED`` on each connection, so on return
        every shard has scanned the chunk and flushed its matches."""
        payload = bytes(chunk)

        async def op(client: MatchClient) -> None:
            await client.feed(self._wire, payload)
            await client.ping()  # barrier: PONG proves the FEED was scanned

        self._matcher._fanout(op, op="FEED", session=self)
        return self._collect()

    def _finish_shards(self) -> list[Match]:
        """Close the stream on every shard (the servers gate
        ``$``-anchored rules, so their matches arrive with the CLOSE),
        then fold each shard's ``(rule, end)`` events into its
        :class:`~repro.matching.ScanResult` and take them out of the
        long-lived shard clients."""
        from ..matching import ScanResult

        self._summaries = self._matcher._fanout(
            lambda client: client.close_stream(self._wire),
            op="CLOSE",
            session=self,
        )
        self._matcher._open_sessions.pop(self._wire, None)
        fresh = self._collect()
        for client, summary in zip(self._matcher._clients, self._summaries):
            ends: dict[str, set[int]] = {}
            for rule, end, _ in client.take_events(self._wire):
                ends.setdefault(rule, set()).add(end)
            self._shard_results.append(ScanResult(
                bytes_scanned=summary.bytes_scanned,
                matches={rule: sorted(at) for rule, at in ends.items()},
            ))
        return fresh

    def _merge_result(self):
        """Per-shard results folded with
        :func:`~repro.engine.parallel.merge_scan_results`."""
        return merge_scan_results(self._shard_results)

    def _collect(self) -> list[Match]:
        """Newly arrived per-shard events past each cursor, re-tagged
        with this session's stream, in :attr:`Match.sort_key` order."""
        fresh: list[Match] = []
        for index, client in enumerate(self._matcher._clients):
            events = client._events.get(self._wire, [])
            seen = len(events)
            for rule, end, gen in events[self._parts[index]:seen]:
                fresh.append(
                    Match(rule=rule, end=end, stream=self.stream, generation=gen)
                )
            self._parts[index] = seen
        fresh.sort(key=lambda match: match.sort_key)
        return fresh


class RemoteShardedMatcher(SessionScans):
    """The :class:`~repro.session.Matcher` protocol over network shards.

    Attaches one :class:`~repro.serve.client.MatchClient` per shard
    address (``retries`` jittered-backoff attempts each, via
    :meth:`MatchClient.connect`); every session fans each chunk out to
    all shards in lockstep and merges the match streams.  Synchronous
    by design -- socket work runs on a private loop thread -- so it
    drops into any code written against the protocol
    (:class:`~repro.session.MultiStreamScanner`, the CLI, even a
    ``MatchServer`` acting as a scatter-gather proxy).

    Args:
        shards: shard endpoints -- ``(host, port)`` tuples or
            ``"host:port"`` strings, one per shard server.
        retries: extra connection attempts per shard (exponential
            backoff with full jitter), for attach and :meth:`reattach`.
        timeout: seconds any one fan-out operation may take before
            :class:`TimeoutError` (a liveness backstop; protocol errors
            surface much earlier).

    Use as a context manager (or call :meth:`close`) to release the
    connections::

        with RemoteShardedMatcher(["10.0.0.7:7401", "10.0.0.8:7401"]) as m:
            result = m.scan(b"payload...")
    """

    def __init__(
        self,
        shards: Sequence[Union[str, tuple[str, int]]],
        *,
        retries: int = 5,
        timeout: float = DEFAULT_OP_TIMEOUT,
    ):
        if not shards:
            raise ValueError("a cluster needs at least one shard endpoint")
        self._addresses = [parse_endpoint(entry) for entry in shards]
        #: Matcher-protocol engine name; backend choice is per shard
        #: *server* configuration, invisible on this side of the wire
        self.engine: str = "remote"
        self.retries = retries
        self.timeout = timeout
        self._loop = _LoopThread()
        self._open_sessions: dict[str, ClusterSession] = {}
        self._session_seq = 0
        self._closed = False
        self._clients: list[MatchClient] = []
        try:
            self._clients = self._loop.run(self._attach_all(), timeout=timeout)
        except BaseException:
            self._loop.stop()
            raise

    async def _attach_all(self) -> list[MatchClient]:
        clients: list[MatchClient] = []
        for index, (host, port) in enumerate(self._addresses):
            try:
                clients.append(
                    await MatchClient.connect(host, port, retries=self.retries)
                )
            except (ConnectionError, OSError) as exc:
                for client in clients:
                    await client.aclose()
                raise ConnectionError(
                    f"cannot attach shard {index} at {host}:{port}: {exc}"
                ) from exc
        return clients

    # -- introspection -----------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._addresses)

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """Shard ``(host, port)`` endpoints, in shard order."""
        return list(self._addresses)

    @property
    def skipped(self) -> list[tuple[str, str]]:
        """Matcher-protocol compile skips: compilation happened on the
        shard servers, so the remote facade reports none."""
        return []

    def resources(self):
        """Matcher-protocol hardware footprint: the shards do not expose
        theirs over the wire, so every count is zero."""
        from ..matching import ResourceSummary

        return ResourceSummary(
            rules_compiled=0, rules_skipped=0, stes=0, counters=0,
            bit_vectors=0, cam_arrays=0, pes=0, area_mm2=0.0, waste_mm2=0.0,
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """QUIT every shard connection (best effort) and stop the loop."""
        if self._closed:
            return
        self._closed = True

        async def hang_up() -> None:
            for client in self._clients:
                try:
                    await asyncio.wait_for(client.quit(), timeout=5.0)
                except Exception:  # noqa: BLE001 - already dead is fine
                    await client.aclose()

        try:
            self._loop.run(hang_up(), timeout=self.timeout)
        finally:
            self._loop.stop()

    def __enter__(self) -> "RemoteShardedMatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def reattach(self, shard: int, address: Optional[Union[str, tuple[str, int]]] = None,
                 retries: Optional[int] = None) -> None:
        """Reconnect one shard (after a failure or server restart).

        Reuses :meth:`MatchClient.connect`'s jittered-backoff retries.
        Sessions that were open when the shard died stay failed -- a
        reattached shard has no memory of their streams -- but sessions
        opened afterwards use the fresh connection.  A shard of a
        :class:`LocalShardCluster` comes back on its own port, so
        ``address`` is needed only when a server moved.
        """
        if address is not None:
            self._addresses[shard] = parse_endpoint(address)
        host, port = self._addresses[shard]
        attempts = self.retries if retries is None else retries

        async def swap() -> None:
            old = self._clients[shard]
            await old.aclose()
            self._clients[shard] = await MatchClient.connect(
                host, port, retries=attempts
            )

        self._loop.run(swap(), timeout=self.timeout)

    # -- the Matcher protocol ----------------------------------------------
    def session(
        self,
        engine: Optional[str] = None,
        *,
        stream: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
    ) -> ClusterSession:
        """Open a :class:`ClusterSession` spanning every shard.

        ``engine`` is accepted for protocol compatibility and ignored:
        the execution backend is each shard *server*'s configuration.
        """
        del engine
        return ClusterSession(self, stream=stream, on_match=on_match)

    # -- cluster-wide operations -------------------------------------------
    def ping(self) -> None:
        """Liveness barrier across every shard."""
        self._fanout(lambda client: client.ping(), op="PING")

    def shard_stats(self) -> list[ServerStats]:
        """Per-shard ``STATS`` snapshots, in shard order."""
        payloads = self._fanout(lambda client: client.stats(), op="STATS")
        return [ServerStats.from_dict(payload) for payload in payloads]

    def stats(self) -> ServerStats:
        """One cluster-wide snapshot: per-shard ``STATS`` folded with
        :func:`~repro.serve.stats.merge_server_stats` (``workers``
        counts the shards)."""
        return merge_server_stats(self.shard_stats())

    # -- plumbing ----------------------------------------------------------
    def _claim_wire_tag(self, stream: Optional[str]) -> str:
        """A per-session wire tag, unique across this matcher's life.

        The user's tag is kept visible (prefixed) for server-side logs
        and debugging, but uniqueness comes from the sequence number:
        two concurrent sessions on the same logical tag must not
        collide in the shards' stream tables.
        """
        self._session_seq += 1
        base = stream if stream is not None else "anon"
        tag = f"{base}~{self._session_seq}"
        if len(tag) > 128:
            tag = f"{base[:100]}~{self._session_seq}"
        return validate_stream_tag(tag)

    def _fanout(self, op_fn, *, op: str,
                session: Optional[ClusterSession] = None) -> list:
        """Run one client operation on every shard concurrently.

        Any shard failure -- connection loss, server ``ERR``, timeout
        -- is wrapped into :class:`ClusterPartialResultError` carrying
        the shard identity, the streams open at failure time, and every
        match already delivered to their sinks.
        """
        if self._closed:
            raise ConnectionError("cluster already closed")

        async def gathered():
            return await asyncio.gather(
                *(op_fn(client) for client in self._clients),
                return_exceptions=True,
            )

        outcomes = self._loop.run(gathered(), timeout=self.timeout)
        failures = [
            (index, self._addresses[index], outcome)
            for index, outcome in enumerate(outcomes)
            if isinstance(outcome, BaseException)
        ]
        if failures:
            error = self._partial_error(op, failures, session)
            if session is not None:
                # the failed session is over: later errors must not name
                # it, and the long-lived clients must not keep its events
                self._open_sessions.pop(session._wire, None)
                for client in self._clients:
                    client.take_events(session._wire)
            raise error
        return list(outcomes)

    def _partial_error(
        self,
        op: str,
        failures: list[tuple[int, tuple[str, int], BaseException]],
        session: Optional[ClusterSession],
    ) -> ClusterPartialResultError:
        affected: dict[str, ClusterSession] = dict(self._open_sessions)
        if session is not None:
            affected.setdefault(session._wire, session)
        names: list[str] = []
        delivered: dict[str, list[Match]] = {}
        for open_session in affected.values():
            name = (
                open_session.stream
                if open_session.stream is not None
                else open_session._wire
            )
            names.append(name)
            delivered[name] = open_session.delivered
        shard, address, cause = failures[0]
        return ClusterPartialResultError(
            op=op,
            shard=shard,
            address=address,
            streams=tuple(names),
            delivered=delivered,
            cause=cause,
            failures=failures,
        )


# -- local shard cluster ---------------------------------------------------
class LocalShardCluster(WorkerFleet):
    """A :class:`~repro.serve.fleet.WorkerFleet` whose workers are shards.

    Each worker holds one rule bucket on its own port.  The shard
    policy is *identical* to :class:`~repro.engine.parallel.ShardedMatcher`:
    :func:`~repro.compiler.pipeline.dedupe_rules` first (round-robin
    would otherwise scatter duplicate ids where no single compile sees
    the collision), then :func:`~repro.engine.parallel.shard_rules`
    round-robin -- so a remote cluster reports the same rule ids, the
    same matches, as the in-process sharded matcher (which is also the
    in-process reference: this class always forks).  Everything else
    is the fleet's: the parent's validation compile per bucket, the
    ports reserved before any fork, crash respawn on the shard's own
    port within ``restart_budget``, :meth:`reload` re-bucketing a new
    ruleset, merged stats, and :meth:`stop` returning the merged final
    stats.  ``**compile_options`` are the
    :class:`~repro.serve.worker.MatcherSpec` compile options
    (``engine``, ``unfold_threshold``, ``opt_level``, ``cache_dir``),
    applied to every shard.  ``processes`` accepts only ``True``.

    Usage::

        cluster = LocalShardCluster(rules, shards=3)
        addresses = cluster.start()
        matcher = RemoteShardedMatcher(addresses)
        ...
        matcher.close()
        final = cluster.stop()          # merged ServerStats
    """

    def __init__(
        self,
        rules: Union[Iterable[str], Sequence[tuple[str, str]]],
        shards: int = 3,
        *,
        host: str = "127.0.0.1",
        ports: Sequence[int] = (),
        queue_depth: int = 32,
        threads: Optional[int] = None,
        drain_timeout: float = 10.0,
        processes: bool = True,
        **compile_options,
    ):
        if not processes:
            raise ValueError(
                "LocalShardCluster always forks one process per shard; "
                "ShardedMatcher is the in-process sharded matcher"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if ports and len(ports) != shards:
            raise ValueError(
                f"got {len(ports)} port(s) for {shards} shard(s)"
            )
        super().__init__(
            rules,
            workers=shards,
            host=host,
            queue_depth=queue_depth,
            threads=threads,
            drain_timeout=drain_timeout,
            **compile_options,
        )
        self._ports = list(ports) or [0] * shards

    def _slot_specs(self, rules) -> list[MatcherSpec]:
        """One spec per round-robin bucket of the deduplicated rules
        (the duplicates go to :attr:`duplicate_skipped`)."""
        unique, self.duplicate_skipped = dedupe_rules(rules)
        return [
            MatcherSpec(rules=tuple(bucket), **self._options)
            for bucket in shard_rules(unique, self.workers)
        ]

    def start(self) -> list[tuple[str, int]]:
        """Reserve every shard's port, fork the shards, wait for every
        ready; return their addresses.  A port that cannot be bound
        raises ``OSError`` before anything is forked, and a shard that
        cannot start raises once the others are torn down; either way
        :attr:`mode` stays ``None``."""
        super().start()
        return self.addresses

    # -- introspection -----------------------------------------------------
    @property
    def mode(self) -> Optional[str]:
        """``"processes"`` while started, else ``None``."""
        return "processes" if self._started else None

    @property
    def shard_count(self) -> int:
        return self.workers

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """Shard server ``(host, port)`` addresses (after :meth:`start`)."""
        return [(self.host, sock.getsockname()[1]) for sock in self._sockets]

    @property
    def buckets(self) -> list[list[tuple[str, str]]]:
        """The round-robin rule buckets, in shard order."""
        return [list(spec.rules) for spec in self._specs]

    @property
    def rule_count(self) -> int:
        """Deduplicated rules served across all shards."""
        return sum(len(spec.rules) for spec in self._specs)
