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

:class:`LocalShardCluster` is the dev/CI harness: it shards one rule
list with the same dedup + round-robin policy as ``ShardedMatcher``
(:func:`~repro.compiler.pipeline.dedupe_rules` then
:func:`~repro.engine.parallel.shard_rules`) and spawns one
``MatchServer`` per bucket -- in-process on a private event loop, or
one OS process per shard (``processes=True``) for real parallelism,
each child booted by the same :mod:`repro.serve.worker` bootstrap as a
fleet worker.  Topology and sizing guidance: ``docs/SERVING.md``
"Cluster deployment".
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import replace
from typing import Iterable, Optional, Sequence, Union

from ..compiler.pipeline import dedupe_rules
from ..engine.parallel import mp_context, shard_rules
from ..session import Match, MatchSession, MatchSink, SessionScans, match_dict
from .client import MatchClient, StreamSummary
from .protocol import validate_stream_tag
from .stats import ServerStats, merge_server_stats
from .worker import MatcherSpec, WorkerConfig, WorkerProcess, stop_workers

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

    def __init__(self, name: str = "repro-cluster"):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
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
        ``$``-anchored rules, so their matches arrive with the CLOSE)."""
        self._summaries = self._matcher._fanout(
            lambda client: client.close_stream(self._wire),
            op="CLOSE",
            session=self,
        )
        self._matcher._open_sessions.pop(self._wire, None)
        return self._collect()

    def _merge_result(self):
        """Per-shard :class:`~repro.matching.ScanResult`\\ s folded with
        :func:`~repro.engine.parallel.merge_scan_results`."""
        from ..engine.parallel import merge_scan_results
        from ..matching import ScanResult

        assert self._summaries is not None
        return merge_scan_results(
            [
                ScanResult(
                    bytes_scanned=summary.bytes_scanned,
                    matches=match_dict(
                        Match(rule, end)
                        for rule, end, _ in client._events.get(self._wire, [])
                    ),
                )
                for client, summary in zip(self._matcher._clients, self._summaries)
            ]
        )

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
        opened afterwards use the fresh connection.  ``address``
        replaces the shard's endpoint (a restarted server rarely keeps
        its ephemeral port).
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
            raise self._partial_error(op, failures, session)
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


# -- local shard-server harness --------------------------------------------
class LocalShardCluster:
    """Spawn M local shard ``MatchServer``\\ s from one ruleset (dev/CI).

    The shard policy is *identical* to
    :class:`~repro.engine.parallel.ShardedMatcher`:
    :func:`~repro.compiler.pipeline.dedupe_rules` first (round-robin
    would otherwise scatter duplicate ids where no single compile sees
    the collision), then :func:`~repro.engine.parallel.shard_rules`
    round-robin -- so a remote cluster reports the same rule ids, the
    same matches, as the in-process sharded matcher.

    ``processes=False`` (default) runs every shard server on one
    private event loop in this process -- fastest startup, perfect for
    tests.  It survives only as the tests' in-process fixture and as
    the fallback where ``multiprocessing`` is unavailable: ``repro
    cluster`` always asks for processes, and every shard of an
    in-process cluster scans under one GIL.  ``processes=True`` forks one
    :class:`~repro.serve.worker.WorkerProcess` per shard (real CPU
    parallelism, the production-shaped dev topology); only where
    multiprocessing itself is unavailable does it degrade to
    in-process serving (:attr:`mode` says which you got) -- a shard
    child that fails to start raises.  ``**compile_options`` are the
    :class:`~repro.serve.worker.MatcherSpec` compile options
    (``engine``, ``unfold_threshold``, ``opt_level``, ``cache_dir``),
    applied to every shard; each shard's spec holds its own rule
    slice, built into one :class:`~repro.matching.RulesetMatcher`.

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
        processes: bool = False,
        **compile_options,
    ):
        if ports and len(ports) != shards:
            raise ValueError(
                f"got {len(ports)} port(s) for {shards} shard(s)"
            )
        unique, self.duplicate_skipped = dedupe_rules(rules)
        self._buckets = shard_rules(unique, shards)
        self._specs = [
            MatcherSpec(rules=tuple(bucket), **compile_options)
            for bucket in self._buckets
        ]
        self._configs = [
            WorkerConfig(
                index=index,
                host=host,
                port=ports[index] if ports else 0,
                queue_depth=queue_depth,
                threads=threads,
                drain_timeout=drain_timeout,
            )
            for index in range(shards)
        ]
        self.host = host
        self.drain_timeout = drain_timeout
        #: the multiprocessing context shard processes fork from;
        #: ``None`` = serve in-process (asked for, or no multiprocessing)
        self._ctx = mp_context() if processes else None
        #: "in-process" or "processes" once started
        self.mode: Optional[str] = None
        self._addresses: list[tuple[str, int]] = []
        self._loop: Optional[_LoopThread] = None
        #: per shard: a ``MatchServer`` (in-process) or ``WorkerProcess``
        self._servers: list = []
        self._matchers: list = []
        self._alive = [True] * shards
        self._final_stats: Optional[ServerStats] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> list[tuple[str, int]]:
        """Start every shard server; return their addresses.  A shard
        that cannot start (a fixed port already bound, a compile error
        in the child, ...) raises with the cause once whatever already
        started is torn down; :attr:`mode` stays ``None``."""
        if self.mode is not None:
            raise RuntimeError("cluster already started")
        try:
            if self._ctx is None:
                self._loop = _LoopThread("repro-shard-servers")
                self._matchers = [spec.build() for spec in self._specs]
            for shard, config in enumerate(self._configs):
                server, address = self._start_shard(shard, config)
                self._servers.append(server)
                self._addresses.append(address)
        except BaseException:
            self._stop_servers(drain=False)
            self._servers, self._addresses = [], []
            raise
        self.mode = "in-process" if self._ctx is None else "processes"
        return self.addresses

    def _start_shard(self, shard: int, config: WorkerConfig):
        """Shard ``shard``'s ``(server, address)``: a forked
        :class:`WorkerProcess`, or a server on the private loop."""
        spec = self._specs[shard]
        if self._ctx is not None:
            worker = WorkerProcess(self._ctx, spec, config)
            return worker, (self.host, worker.port)
        server = config.make_server(self._matchers[shard], spec.engine)
        self._loop.run(server.start(), timeout=30.0)
        return server, (server.host, server.port)

    def _stop_servers(self, drain: bool) -> list[ServerStats]:
        """Stop whatever is running (skipping killed shards) and the
        private loop; the final per-shard snapshots that were still
        obtainable."""
        timeout = self.drain_timeout + 10.0
        live = [
            server for server, alive in zip(self._servers, self._alive) if alive
        ]
        if self._ctx is not None:
            return stop_workers(live, drain, timeout)
        for server in live:
            try:
                self._loop.run(server.stop(drain=drain), timeout=timeout)
            except Exception:  # noqa: BLE001 - keep stopping the others
                pass
        if self._loop is not None:
            self._loop.stop()
        return [server.stats() for server in self._servers]

    def stop(self, drain: bool = True) -> ServerStats:
        """Stop every live shard; return the merged final stats
        (:func:`~repro.serve.stats.merge_server_stats` over whatever
        shards were still reachable -- a neutral snapshot if none)."""
        if self._final_stats is None:
            self._final_stats = merge_server_stats(self._stop_servers(drain))
        return self._final_stats

    def __enter__(self) -> "LocalShardCluster":
        if self.mode is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- introspection / test hooks ----------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._specs)

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """Shard server ``(host, port)`` addresses (after :meth:`start`)."""
        return list(self._addresses)

    @property
    def buckets(self) -> list[list[tuple[str, str]]]:
        """The round-robin rule buckets, in shard order."""
        return [list(bucket) for bucket in self._buckets]

    @property
    def rule_count(self) -> int:
        """Deduplicated rules served across all shards."""
        return sum(len(bucket) for bucket in self._buckets)

    def kill_shard(self, shard: int) -> None:
        """Hard-kill one shard server (no drain) -- the fault-injection
        hook the cluster tests use to simulate a shard dying."""
        if not self._alive[shard]:
            return
        self._alive[shard] = False
        if self._ctx is not None:
            self._servers[shard].kill()
        else:
            self._loop.run(
                self._servers[shard].stop(drain=False), timeout=10.0
            )

    def restart_shard(self, shard: int) -> tuple[str, int]:
        """Start a fresh server for one (killed) shard's bucket; returns
        its new address (ephemeral port: the old one may still linger in
        TIME_WAIT).  Pairs with
        :meth:`RemoteShardedMatcher.reattach`.  A replacement that
        fails to start raises and leaves nothing running."""
        if self._alive[shard]:
            raise RuntimeError(f"shard {shard} is still running")
        self._servers[shard], address = self._start_shard(
            shard, replace(self._configs[shard], port=0)
        )
        self._alive[shard] = True
        self._addresses[shard] = address
        return address
