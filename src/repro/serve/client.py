"""Client side of the match-serving protocol.

:class:`MatchClient` is an asyncio client for
:class:`~repro.serve.server.MatchServer`: it demultiplexes the
server's reply stream -- asynchronous ``MATCH`` events interleaved
with FIFO command acknowledgements -- into per-stream match lists and
awaitable command results.  It exists for four consumers: the
``python -m repro connect`` smoke-test CLI, the end-to-end test
suite, the cluster scatter-gather layer (:mod:`repro.serve.cluster`
holds one ``MatchClient`` per remote ruleset shard and uses
``PING``/``PONG`` as its lockstep barrier), and as the reference
implementation of the framing rules in ``docs/SERVING.md`` (anything
that can speak it can be a client; the grammar is six verbs).

The synchronous convenience :func:`scan_tagged_remote` mirrors
:meth:`repro.session.MultiStreamScanner.scan_tagged` over the wire:
feed interleaved ``(tag, chunk)`` pairs, get per-stream matches back
-- the serving-vs-offline equality the e2e tests pin is stated in
terms of these two functions.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..engine.scanner import Chunk, coerce_chunk
from ..session import Match
from .protocol import (
    MAX_FEED,
    ProtocolError,
    unescape_token,
    validate_stream_tag,
)

__all__ = [
    "MatchClient",
    "ServerError",
    "StreamSummary",
    "backoff_delays",
    "scan_tagged_remote",
]


@dataclass(frozen=True)
class StreamSummary:
    """The server's ``CLOSED`` acknowledgement for one stream."""

    stream: str
    bytes_scanned: int
    matches_emitted: int
    #: ruleset generation the stream was pinned to (0 = initial)
    generation: int = 0


def backoff_delays(
    attempts: int,
    base: float = 0.05,
    cap: float = 2.0,
    jitter=None,
) -> Iterator[float]:
    """Exponential-backoff sleep schedule with full jitter.

    Yields one delay per retry *attempt*: each drawn uniformly from
    ``[0, min(cap, base * 2**i)]`` ("full jitter", the AWS
    decorrelation scheme) -- so a fleet of clients reconnecting after
    a mass restart spreads out instead of thundering back in lockstep.
    ``jitter`` is the uniform sampler (injectable for tests; defaults
    to :func:`random.uniform`).

    >>> delays = list(backoff_delays(4, base=0.1, cap=0.5,
    ...                              jitter=lambda lo, hi: hi))
    >>> [round(d, 2) for d in delays]
    [0.1, 0.2, 0.4, 0.5]
    """
    if jitter is None:
        jitter = random.uniform
    for attempt in range(attempts):
        yield jitter(0.0, min(cap, base * (2.0 ** attempt)))


class ServerError(RuntimeError):
    """The server answered ``ERR`` to a command."""


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle: the protocol pipelines small control lines, and
    coalescing them behind delayed ACKs only adds latency."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):  # pragma: no cover - exotic AF
            pass


@dataclass
class _Pending:
    """One in-flight acknowledged command (FIFO with the server)."""

    verb: str  # the command verb sent (OPEN/CLOSE/STATS/PING/QUIT)
    ack: str  # the reply verb that resolves it (OK/CLOSED/STATS/...)
    future: Optional[asyncio.Future] = None


class MatchClient:
    """One connection to a :class:`~repro.serve.server.MatchServer`.

    Matches arrive asynchronously and are collected per stream tag in
    :attr:`matches` (also observable live via the ``on_match``
    callback).  Commands that carry acknowledgements (``open``,
    ``close_stream``, ``stats``, ``ping``, ``quit``) return once the
    server answers; :meth:`feed` is pipelined and returns as soon as
    the bytes are written (backpressure via the transport's drain).

    Use :meth:`connect` to construct::

        client = await MatchClient.connect("127.0.0.1", port)
        await client.open("s1")
        await client.feed("s1", b"...chunk...")
        summary = await client.close_stream("s1")
        client.matches["s1"]       # [Match, ...] in emission order
        await client.quit()
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 on_match=None):
        self._reader = reader
        self._writer = writer
        self.on_match = on_match
        #: parsed ``(rule, end, generation)`` events per stream, in
        #: emission order; Match objects are materialized lazily by
        #: :attr:`matches`
        self._events: dict[str, list[tuple[str, int, int]]] = {}
        self._built: dict[str, list[Match]] = {}
        #: ``ERR`` lines that acknowledge nothing (rejected pipelined
        #: FEEDs, server-side protocol complaints), in arrival order
        self.errors: list[str] = []
        self._pending: list[_Pending] = []
        self._closed = False
        self._error: Optional[Exception] = None
        self._demux_task = asyncio.ensure_future(self._demux())

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        on_match=None,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> "MatchClient":
        """Open a TCP connection and start the reply demultiplexer.

        ``retries`` extra attempts are made on ``ConnectionError`` /
        ``OSError``, sleeping per :func:`backoff_delays` between them
        (exponential with full jitter -- a restarting fleet is not
        greeted by a thundering herd of synchronized reconnects); the
        last failure propagates.
        """
        delays = backoff_delays(retries, base=backoff_base, cap=backoff_cap)
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except (ConnectionError, OSError):
                delay = next(delays, None)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
        _set_nodelay(writer)
        return cls(reader, writer, on_match=on_match)

    @property
    def matches(self) -> dict[str, list[Match]]:
        """Per-stream :class:`~repro.session.Match` lists, in server
        emission order (materialized lazily from the parsed wire
        events; reading mid-stream is fine)."""
        for stream, events in self._events.items():
            built = self._built.setdefault(stream, [])
            if len(built) < len(events):
                built.extend(
                    Match(rule=rule, end=end, stream=stream, generation=gen)
                    for rule, end, gen in events[len(built):]
                )
        return self._built

    def take_events(self, stream: str) -> list[tuple[str, int, int]]:
        """Remove and return ``stream``'s ``(rule, end, generation)``
        events: a long-lived client frees a closed stream this way
        (:attr:`matches` keeps every stream otherwise)."""
        self._built.pop(stream, None)
        return self._events.pop(stream, [])

    # -- commands ----------------------------------------------------------
    async def open(self, stream: str) -> None:
        """Open a tagged stream (``OPEN``; awaits the ``OK``)."""
        validate_stream_tag(stream)
        self._events.setdefault(stream, [])
        await self._command(f"OPEN {stream}", ack="OK")

    async def feed(self, stream: str, chunk: Chunk) -> None:
        """Stream one chunk (``FEED``; pipelined, no acknowledgement).

        Chunks larger than the protocol's frame cap are split
        transparently; an empty chunk is a no-op frame.
        """
        payload = bytes(coerce_chunk(chunk))
        offset = 0
        while True:
            part = payload[offset : offset + MAX_FEED]
            self._check_alive()
            self._writer.write(
                f"FEED {stream} {len(part)}\n".encode("latin-1") + part
            )
            await self._writer.drain()
            offset += len(part)
            if offset >= len(payload):
                return

    async def close_stream(self, stream: str) -> StreamSummary:
        """End a stream (``CLOSE``); returns the server's summary after
        every match for the stream -- the ``$``-gated ones included --
        has been delivered."""
        line = await self._command(f"CLOSE {stream}", ack="CLOSED")
        fields = line.split(" ")
        return StreamSummary(
            stream=fields[1],
            bytes_scanned=int(fields[2]),
            matches_emitted=int(fields[3]),
            generation=int(fields[4]) if len(fields) > 4 else 0,
        )

    async def stats(self) -> dict:
        """The server's :class:`~repro.serve.stats.ServerStats` snapshot
        as a plain dict (``STATS``)."""
        line = await self._command("STATS", ack="STATS")
        return json.loads(line.split(" ", 1)[1])

    async def ping(self) -> None:
        """Liveness round-trip (``PING``/``PONG``)."""
        await self._command("PING", ack="PONG")

    async def quit(self) -> None:
        """Drain and hang up (``QUIT``; awaits the ``BYE``)."""
        try:
            await self._command("QUIT", ack="BYE")
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Tear the connection down without the QUIT handshake.

        Any still-pending command futures are failed with
        :class:`ConnectionError` -- a caller awaiting one must never
        hang on a connection that no longer exists (the protocol-fuzz
        suite pins this)."""
        if self._closed:
            return
        self._closed = True
        self._demux_task.cancel()
        await asyncio.gather(self._demux_task, return_exceptions=True)
        if self._pending:
            abandoned = ConnectionError("client closed with commands in flight")
            for pending in self._pending:
                if not pending.future.done():
                    pending.future.set_exception(abandoned)
                    # a future nobody ever awaits (write raised before
                    # the await) would otherwise log "exception was
                    # never retrieved"; exception() marks it retrieved
                    # without consuming it for real awaiters
                    pending.future.exception()
            self._pending.clear()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- plumbing ----------------------------------------------------------
    def _check_alive(self) -> None:
        if self._error is not None:
            raise self._error
        if self._closed:
            raise ConnectionError("client already closed")

    async def _command(self, line: str, ack: str) -> str:
        self._check_alive()
        pending = _Pending(line.split(" ", 1)[0], ack)
        pending.future = asyncio.get_running_loop().create_future()
        self._pending.append(pending)
        self._writer.write(line.encode("latin-1") + b"\n")
        await self._writer.drain()
        return await pending.future

    async def _demux(self) -> None:
        """Route server lines: MATCH events to the per-stream lists,
        everything else to the oldest pending command future.

        Reads the socket in bulk and splits lines manually: a busy
        stream delivers thousands of MATCH lines per read, and one
        ``bytes.split`` over the gulp is several times cheaper than a
        ``readline`` round-trip per line.
        """
        buffer = b""
        try:
            while True:
                gulp = await self._reader.read(65536)
                if not gulp:
                    raise ConnectionError("server closed the connection")
                buffer += gulp
                *lines, buffer = buffer.split(b"\n")
                for raw in lines:
                    self._dispatch(raw)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - surfaced to every caller
            self._error = exc
            for pending in self._pending:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            self._pending.clear()

    def _dispatch(self, raw: bytes) -> None:
        if raw.startswith(b"MATCH "):
            # hot path: split once, defer Match construction (several
            # thousand of these per busy stream compete with the
            # server's own scanning for the GIL)
            try:
                _, stream, end, gen, rule = (
                    raw.decode("latin-1").rstrip("\r").split(" ", 4)
                )
                event = (unescape_token(rule), int(end), int(gen))
            except ValueError:
                raise ProtocolError(f"malformed MATCH line: {raw[:80]!r}") from None
            self._events.setdefault(stream, []).append(event)
            if self.on_match is not None:
                self.on_match(
                    Match(
                        rule=event[0],
                        end=event[1],
                        stream=stream,
                        generation=event[2],
                    )
                )
            return
        line = raw.decode("latin-1").rstrip("\r")
        if not line:
            return
        verb = line.split(" ", 1)[0]
        if verb == "ERR":
            self._route_error(line[4:])
        elif verb == "BYE" and not self._expecting("BYE"):
            # unsolicited BYE: server is draining/shutting down
            raise ConnectionError("server shut down")
        else:
            self._resolve(line)

    def _expecting(self, ack: str) -> bool:
        return bool(self._pending) and self._pending[0].ack == ack

    def _route_error(self, message: str) -> None:
        """Server ``ERR`` messages lead with the offending verb; those
        for acknowledged commands fail that command's future, the rest
        (pipelined FEED rejections, framing complaints) land in
        :attr:`errors`."""
        offender = message.split(" ", 1)[0].rstrip(":")
        if self._pending and self._pending[0].verb == offender:
            self._resolve(ServerError(message))
        else:
            self.errors.append(message)

    def _resolve(self, outcome) -> None:
        if not self._pending:
            raise ProtocolError(f"unsolicited server line: {outcome!r}")
        pending = self._pending.pop(0)
        if pending.future.done():
            return
        if isinstance(outcome, Exception):
            pending.future.set_exception(outcome)
        else:
            pending.future.set_result(outcome)


async def _scan_tagged(
    host: str,
    port: int,
    pairs: Sequence[tuple[str, bytes]],
    retries: int = 0,
) -> tuple[dict[str, list[Match]], dict[str, StreamSummary], dict]:
    client = await MatchClient.connect(host, port, retries=retries)
    try:
        seen: list[str] = []
        for tag, chunk in pairs:
            if tag not in client.matches:
                seen.append(tag)
                await client.open(tag)
            await client.feed(tag, chunk)
        summaries = {tag: await client.close_stream(tag) for tag in seen}
        stats = await client.stats()
        await client.quit()
        return client.matches, summaries, stats
    finally:
        await client.aclose()


def scan_tagged_remote(
    host: str,
    port: int,
    pairs: Iterable[tuple[str, Chunk]],
    retries: int = 0,
) -> tuple[dict[str, list[Match]], dict[str, StreamSummary], dict]:
    """One-shot remote mirror of
    :meth:`~repro.session.MultiStreamScanner.scan_tagged`.

    Connects, opens each tag on first sight, feeds the interleaved
    ``(tag, chunk)`` pairs in order, closes every stream, and returns
    ``(matches, summaries, server_stats)`` -- ``matches`` keyed by tag
    in emission order, exactly what the offline scanner's sinks would
    have seen.  Runs its own event loop; call it from synchronous code
    only (the CLI and tests do).
    """
    material = [(tag, bytes(coerce_chunk(chunk))) for tag, chunk in pairs]
    return asyncio.run(_scan_tagged(host, port, material, retries=retries))
