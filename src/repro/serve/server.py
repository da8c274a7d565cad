"""The asyncio match server: one compiled ruleset, N client connections.

:class:`MatchServer` is the serving layer over the PR-4 session
machinery: it accepts TCP connections speaking the
:mod:`repro.serve.protocol` line protocol, gives every connection its
own set of tagged :class:`~repro.session.MatchSession`\\ s (all sharing
the server's one compiled :class:`~repro.session.Matcher` -- sharded
or not, any engine), and streams :class:`Match` events
back as scanning observes them.

Concurrency model (one event loop, CPU work off-loop):

* the **event loop** owns all sockets, parsing, and bookkeeping;
* every connection has a **reader** coroutine (frames -> job queue)
  and a **worker** coroutine (job queue -> sessions -> reply lines);
  jobs execute strictly in arrival order per connection, so stream
  semantics are the client's send order;
* the worker off-loads every CPU-bound ``feed``/``finish`` into the
  server-wide :class:`~repro.engine.parallel.FeedPool` (threads
  sharing the compiled tables), so one client scanning a huge chunk
  never freezes the loop for the others;
* **backpressure** is structural: the per-connection job queue is
  bounded (``queue_depth``), the reader ``await``\\ s the queue before
  reading more bytes, and a full queue therefore stops socket reads
  -- TCP flow control pushes back to the client.  Nothing is dropped;
  outbound pressure is ``writer.drain()`` after every batch of match
  lines.

Shutdown (:meth:`MatchServer.stop`) is a **graceful drain**: the
listener closes first, every connection's already-queued work is
finished and its matches flushed, clients get a ``BYE``, and only
then do transports close (bounded by ``drain_timeout``).

Matches are delivered through the PR-4 sink machinery: each session
is created with the connection's emit buffer as its ``on_match``
sink, so the wire sees exactly what any local sink would --
same events, same order, same ``$``-gating -- and a served stream is
byte-for-byte comparable to an offline
:class:`~repro.session.MultiStreamScanner` run (the e2e tests assert
exactly that equality).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Callable, Optional, Union

from ..engine.parallel import FeedPool
from ..session import Match, Matcher, MatchSession
from .protocol import (
    Command,
    MAX_LINE,
    ProtocolError,
    format_match,
    parse_command,
)
from .stats import ServerStats, StatsCounters

__all__ = ["MatchServer", "MatcherHandle"]

#: default per-connection job-queue depth (frames in flight before the
#: reader stops reading the socket and TCP backpressure kicks in)
DEFAULT_QUEUE_DEPTH = 32


class _Shutdown:
    """Sentinel job: finish what is queued ahead of this, say BYE."""


_SHUTDOWN = _Shutdown()
_EOF = object()  # reader saw end-of-stream: stop the worker quietly


class MatcherHandle:
    """A swappable reference to the server's live matcher.

    The hot-reload primitive: the server reads the handle, never the
    matcher directly, and :meth:`swap` replaces the matcher *and* bumps
    the ruleset generation in one attribute store -- atomic under the
    GIL, so connections racing a reload see either the old
    ``(generation, matcher)`` pair or the new one, never a torn mix.
    Streams pin the pair at ``OPEN`` and drain on it; only streams
    opened after the swap scan with the new tables.

    >>> from repro.serve.server import MatcherHandle
    >>> handle = MatcherHandle("tables-v0")
    >>> handle.current()
    (0, 'tables-v0')
    >>> handle.swap("tables-v1")
    1
    >>> handle.current()
    (1, 'tables-v1')
    """

    def __init__(self, matcher: Matcher, generation: int = 0):
        self._current: tuple[int, Matcher] = (generation, matcher)

    @property
    def generation(self) -> int:
        """The live ruleset generation (0 until the first swap)."""
        return self._current[0]

    @property
    def matcher(self) -> Matcher:
        """The live matcher."""
        return self._current[1]

    def current(self) -> tuple[int, Matcher]:
        """One consistent ``(generation, matcher)`` pair."""
        return self._current

    def swap(self, matcher: Matcher, generation: Optional[int] = None) -> int:
        """Install ``matcher`` atomically; return its generation.

        ``generation=None`` auto-increments; a fleet supervisor passes
        an explicit parent-assigned generation so every worker agrees.
        """
        if generation is None:
            generation = self._current[0] + 1
        self._current = (generation, matcher)
        return generation


class _Connection:
    """One accepted client: its sessions, job queue, and two tasks."""

    def __init__(self, server: "MatchServer", reader, writer):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.jobs: asyncio.Queue = asyncio.Queue(maxsize=server.queue_depth)
        self.sessions: dict[str, MatchSession] = {}
        self.match_counts: dict[str, int] = {}
        #: ruleset generation each open stream is pinned to (set at
        #: OPEN from the handle, constant for the stream's life)
        self.generations: dict[str, int] = {}
        self.closing = False
        #: the per-connection ``on_match`` sink target: sessions append
        #: here during (threaded) feed/finish; the worker drains it to
        #: the wire right after each backend call returns.  Only one
        #: job runs at a time per connection, so no locking is needed.
        self.emitted: list[Match] = []

    # -- lifecycle ---------------------------------------------------------
    async def run(self) -> None:
        """Pump frames and execute jobs until either side finishes.

        The worker owns the connection's lifetime: it returns on client
        EOF (via the reader's ``_EOF`` sentinel), ``QUIT``, a fatal
        protocol error, or server shutdown -- after which the reader
        (possibly parked on a backpressured queue or an idle socket) is
        cancelled and the transport closed.
        """
        reader_task = asyncio.ensure_future(self._pump())
        try:
            await self._work()
        finally:
            reader_task.cancel()
            await asyncio.gather(reader_task, return_exceptions=True)
            self._abandon_sessions()
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pump(self) -> None:
        await self._read_frames()
        await self.jobs.put(_EOF)

    def _abandon_sessions(self) -> None:
        """Drop still-open sessions (client left without CLOSE); their
        end-gated matches are unobservable by design -- the stream did
        not actually end, it was abandoned."""
        for _ in self.sessions:
            self.server._stats.stream_closed()
        self.sessions.clear()
        self.generations.clear()

    # -- reader: socket -> bounded job queue -------------------------------
    async def _read_frames(self) -> None:
        while not self.closing:
            try:
                line = await self.reader.readline()
            except ValueError:
                # over-long control line: a framing violation
                await self.jobs.put(("ERRFATAL", "control line too long"))
                return
            except (ConnectionError, OSError):
                return  # transport died: treat like EOF, nothing to say
            if not line:
                return  # clean EOF / client disconnect
            stripped = line.rstrip(b"\r\n")
            if not stripped:
                continue  # blank keep-alive line
            try:
                command = parse_command(stripped)
            except ProtocolError as exc:
                await self.jobs.put(("ERRFATAL", str(exc)))
                return
            payload = b""
            if command.verb == "FEED" and command.nbytes:
                try:
                    payload = await self.reader.readexactly(command.nbytes)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return  # died mid-payload: nothing sane to answer
            # bounded put: a full queue suspends reading (backpressure)
            await self.jobs.put((command, payload))
            if command.verb == "QUIT":
                return

    # -- worker: job queue -> sessions -> reply lines ----------------------
    async def _work(self) -> None:
        stashed = None
        while True:
            if stashed is not None:
                job, stashed = stashed, None
            else:
                job = await self.jobs.get()
            if job is _EOF:
                return
            if job is _SHUTDOWN:
                self.closing = True
                self._write_line(b"BYE\n")
                await self._drain_quietly()
                return
            if isinstance(job, tuple) and job[0] == "ERRFATAL":
                self.server._stats.record_error()
                self._write_line(f"ERR {job[1]}\n".encode("latin-1"))
                await self._drain_quietly()
                self.closing = True
                return
            command, payload = job
            payloads = [payload]
            if command.verb == "FEED":
                # batch every already-queued FEED for the same stream
                # into one executor hop: under load the queue fills
                # while a scan runs, and draining it in one threaded
                # call amortizes loop wake-ups, match flushes, and GIL
                # handoffs (the job order is preserved; the first
                # non-matching job is stashed for the next iteration)
                while stashed is None:
                    try:
                        nxt = self.jobs.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if (
                        isinstance(nxt, tuple)
                        and isinstance(nxt[0], Command)
                        and nxt[0].verb == "FEED"
                        and nxt[0].stream == command.stream
                    ):
                        payloads.append(nxt[1])
                    else:
                        stashed = nxt
            try:
                done = await self._execute(command, payloads)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closing = True
                return
            if done:
                return

    async def _execute(self, command: Command, payloads: list[bytes]) -> bool:
        """Run one command (for FEED: a batch of same-stream payloads);
        return True when the connection should end."""
        verb, tag = command.verb, command.stream
        server = self.server
        if verb == "OPEN":
            if tag in self.sessions:
                self._error(f"OPEN {tag}: stream already open")
                return False
            # pin (generation, matcher) in one read: the stream drains
            # on these tables even if a reload swaps the handle mid-life
            generation, matcher = server.handle.current()
            self.sessions[tag] = matcher.session(
                engine=server.engine,
                stream=tag,
                on_match=self.emitted.append,
            )
            self.generations[tag] = generation
            # reset, not setdefault: reusing a tag after CLOSE is a
            # fresh stream, so its CLOSED summary must not accumulate
            # the previous incarnation's match count
            self.match_counts[tag] = 0
            server._stats.stream_opened()
            self._write_line(f"OK OPEN {tag} {generation}\n".encode("latin-1"))
        elif verb == "FEED":
            session = self.sessions.get(tag)
            if session is None:
                # one ERR per rejected frame, so the reply stream is
                # identical whether the frames were batched or not
                for _ in payloads:
                    self._error(f"FEED {tag}: stream not open")
                return False

            def feed_batch():
                for payload in payloads:
                    session.feed(payload)

            _, seconds = await server._offload(feed_batch)
            emitted = self._flush_matches(tag)
            server._stats.record_feed(
                sum(len(payload) for payload in payloads),
                emitted,
                seconds,
                frames=len(payloads),
            )
        elif verb == "CLOSE":
            session = self.sessions.pop(tag, None)
            if session is None:
                self._error(f"CLOSE {tag}: stream not open")
                return False
            _, seconds = await server._offload(session.finish)
            emitted = self._flush_matches(tag)
            server._stats.record_finish(emitted, seconds)
            server._stats.stream_closed()
            self._write_line(
                f"CLOSED {tag} {session.bytes_fed} "
                f"{self.match_counts[tag]} "
                f"{self.generations.pop(tag, 0)}\n".encode("latin-1")
            )
        elif verb == "STATS":
            snapshot = server.stats().as_dict()
            self._write_line(
                b"STATS " + json.dumps(snapshot, sort_keys=True).encode("latin-1")
                + b"\n"
            )
        elif verb == "PING":
            self._write_line(b"PONG\n")
        elif verb == "QUIT":
            self._write_line(b"BYE\n")
            await self._drain_quietly()
            self.closing = True
            return True
        return False

    # -- write helpers -----------------------------------------------------
    def _flush_matches(self, tag: str) -> int:
        """Write every match the last backend call emitted; return the
        count (order is the session's emission order)."""
        emitted = self.emitted
        if not emitted:
            return 0
        generation = self.generations.get(tag, 0)
        self.writer.writelines(
            format_match(match, generation) for match in emitted
        )
        count = len(emitted)
        self.match_counts[tag] = self.match_counts.get(tag, 0) + count
        emitted.clear()
        return count

    def _write_line(self, line: bytes) -> None:
        self.writer.write(line)

    def _error(self, message: str) -> None:
        self.server._stats.record_error()
        self._write_line(f"ERR {message}\n".encode("latin-1"))

    async def _drain_quietly(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, OSError):
            pass


class MatchServer:
    """Serve one compiled ruleset to N concurrent line-protocol clients.

    Args:
        matcher: any :class:`~repro.session.Matcher`
            (:class:`~repro.matching.RulesetMatcher` or
            :class:`~repro.engine.parallel.ShardedMatcher`), already
            compiled -- the server never recompiles -- or a
            :class:`MatcherHandle` for hot-reload deployments (a bare
            matcher is wrapped in a fresh handle at generation 0).
        host / port: bind address (``port=0`` picks an ephemeral port,
            readable from :attr:`port` after :meth:`start`).
        engine: execution-backend override for every session (``None``
            uses the matcher's own default, usually ``"auto"``).
        queue_depth: per-connection bounded job-queue depth -- the
            backpressure knob (frames in flight before socket reads
            stop).
        workers: thread count of the shared
            :class:`~repro.engine.parallel.FeedPool` (``None`` is the
            pool's default, one thread: scans run one at a time).
        drain_timeout: seconds :meth:`stop` waits for per-connection
            graceful drain before cancelling.
        sock: an already-bound listening socket to serve on instead of
            binding ``host:port`` (the fleet's fd-passing fallback on
            platforms without ``SO_REUSEPORT``).
        reuse_port: bind with ``SO_REUSEPORT`` so N processes can
            listen on the same ``host:port`` and the kernel shards
            accepted connections across them.
        worker: this server's index within a fleet, stamped into
            :class:`~repro.serve.stats.ServerStats` (``None`` for a
            lone server).

    Usage (also the shape of ``python -m repro serve``)::

        async with MatchServer(matcher, port=0) as server:
            print(server.port)          # bound ephemeral port
            await server.serve_forever()

    or explicitly: ``await server.start()`` ... ``await server.stop()``.
    """

    def __init__(
        self,
        matcher: Union[Matcher, MatcherHandle],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: Optional[str] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        workers: Optional[int] = None,
        drain_timeout: float = 10.0,
        sock: Optional[socket.socket] = None,
        reuse_port: bool = False,
        worker: Optional[int] = None,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if sock is not None and reuse_port:
            raise ValueError("sock and reuse_port are mutually exclusive")
        self.handle = (
            matcher
            if isinstance(matcher, MatcherHandle)
            else MatcherHandle(matcher)
        )
        self.host = host
        self.port = port
        self.engine = engine
        self.queue_depth = queue_depth
        self.workers = workers
        self.drain_timeout = drain_timeout
        self.reuse_port = reuse_port
        self.worker = worker
        self._sock = sock
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[FeedPool] = None
        self._handlers: set[asyncio.Task] = set()
        self._connections: set[_Connection] = set()
        self._stats = StatsCounters(
            engine=engine or getattr(self.handle.matcher, "engine", "auto"),
            worker=worker,
        )

    @property
    def matcher(self) -> Matcher:
        """The live matcher (reads through the swap-aware handle)."""
        return self.handle.matcher

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "MatchServer":
        """Bind and start accepting; resolves the ephemeral port.

        Bind failures (port in use, privileged port, SO_REUSEPORT
        unsupported) propagate as ``OSError``/``ValueError`` -- callers
        own the bind-error UX.
        """
        if self._server is not None:
            raise RuntimeError("server already started")
        self._pool = FeedPool(self.workers)
        self._stats = StatsCounters(
            engine=self._stats.engine, worker=self.worker
        )
        try:
            if self._sock is not None:
                self._server = await asyncio.start_server(
                    self._handle, sock=self._sock, limit=MAX_LINE * 16
                )
            else:
                self._server = await asyncio.start_server(
                    self._handle,
                    host=self.host,
                    port=self.port,
                    limit=MAX_LINE * 16,
                    reuse_port=self.reuse_port or None,
                )
        except BaseException:
            self._pool.shutdown()
            self._pool = None
            raise
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self

    async def serve_forever(self) -> None:
        """Block until the server is stopped or cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting and shut down, gracefully by default.

        ``drain=True``: every connection finishes its queued work,
        flushes pending matches, and receives ``BYE`` before its
        transport closes (bounded by ``drain_timeout`` per the whole
        fleet).  ``drain=False`` cancels connection tasks immediately.
        """
        listener, self._server = self._server, None
        if listener is not None:
            # close() alone stops accepting; wait_closed() is deferred
            # because on 3.12+ it also waits for every live handler,
            # which would deadlock the drain handshake below
            listener.close()
        if drain:
            for conn in list(self._connections):
                conn.closing = True
                try:
                    conn.jobs.put_nowait(_SHUTDOWN)
                except asyncio.QueueFull:
                    pass  # worker is saturated; the timeout bounds us
            if self._handlers:
                await asyncio.wait(self._handlers, timeout=self.drain_timeout)
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        if listener is not None:
            try:
                await asyncio.wait_for(listener.wait_closed(), timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                pass
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    async def __aenter__(self) -> "MatchServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.stop()
        return False

    # -- introspection -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return (self.host, self.port)

    @property
    def connections(self) -> int:
        """Currently connected clients."""
        return len(self._connections)

    def stats(self) -> ServerStats:
        """A point-in-time :class:`~repro.serve.stats.ServerStats`."""
        self._stats.generation = self.handle.generation
        return self._stats.snapshot()

    # -- hot reload --------------------------------------------------------
    async def reload(
        self,
        build: Callable[[], Matcher],
        generation: Optional[int] = None,
    ) -> int:
        """Hot-swap the ruleset; return the new generation.

        ``build`` (typically ``lambda: RulesetMatcher(rules, cache_dir=...)``)
        runs on the FeedPool, so compiling/loading the new tables never
        blocks the event loop or in-flight scans.  The swap itself is
        :meth:`MatcherHandle.swap` -- atomic; already-open streams keep
        draining on the tables they pinned at ``OPEN``, streams opened
        afterwards scan (and stamp their lines) with the new
        generation.  ``generation=None`` auto-increments; a fleet
        supervisor passes its own fleet-wide number.
        """
        if self._pool is not None:
            matcher, _ = await self._offload(build)
        else:  # not started yet: nothing to keep responsive
            matcher = build()
        return self.handle.swap(matcher, generation)

    # -- internals ---------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        from .client import _set_nodelay

        _set_nodelay(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        conn = _Connection(self, reader, writer)
        self._connections.add(conn)
        self._stats.connection_opened()
        try:
            await conn.run()
        except asyncio.CancelledError:
            conn.writer.close()
            raise
        finally:
            self._connections.discard(conn)
            self._stats.connection_closed()

    async def _offload(self, fn, *args):
        """Run a CPU-bound session call on the FeedPool; return
        ``(result, seconds)`` with the seconds measured inside the
        worker thread (pure backend time, no queue wait)."""
        assert self._pool is not None, "server not started"

        def timed():
            start = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - start

        return await asyncio.wrap_future(self._pool.submit(timed))
