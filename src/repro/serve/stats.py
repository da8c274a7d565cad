"""Server load accounting: live counters and immutable snapshots.

The server mutates one :class:`StatsCounters` from its event loop and
worker callbacks; :meth:`StatsCounters.snapshot` freezes it into a
:class:`ServerStats` -- the thing the ``STATS`` wire command, the CLI,
and the tests observe.  Throughput is derived, not sampled: the
workers accumulate the wall-clock seconds actually spent inside
backend ``feed``/``finish`` calls (``busy_seconds``), so
``throughput_bps`` is the compiled ruleset's measured scan rate under
serving load, directly comparable to an offline scan of the same
bytes (the repository benchmark's ``serve.overhead_ratio`` is that
comparison).

    >>> from repro.serve.stats import StatsCounters
    >>> counters = StatsCounters(engine="stream")
    >>> counters.record_feed(nbytes=1024, matches=3, seconds=0.5)
    >>> snap = counters.snapshot()
    >>> (snap.bytes_scanned, snap.matches_emitted, snap.throughput_bps)
    (1024, 3, 2048.0)
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

__all__ = ["ServerStats", "StatsCounters", "merge_server_stats"]


@dataclass(frozen=True)
class ServerStats:
    """One immutable load snapshot of a running match server.

    Counters are cumulative since server start unless suffixed
    ``_open`` (current).  ``engine`` is the *requested* backend name
    (``auto`` resolves per compiled ruleset); ``throughput_bps`` is
    ``bytes_scanned / busy_seconds`` -- the scan rate while actually
    scanning, independent of client idle time.
    """

    #: backend name the server resolves sessions against
    engine: str
    #: currently connected clients / ever-accepted clients
    connections_open: int = 0
    connections_total: int = 0
    #: currently open tagged streams / ever-opened streams
    streams_open: int = 0
    streams_total: int = 0
    #: payload bytes scanned through sessions (post-framing)
    bytes_scanned: int = 0
    #: Match events written to clients
    matches_emitted: int = 0
    #: FEED frames processed
    feeds: int = 0
    #: ERR lines sent (protocol + application rejections)
    errors: int = 0
    #: wall seconds spent inside backend feed()/finish() calls
    busy_seconds: float = 0.0
    #: seconds since the server started
    uptime_seconds: float = 0.0
    #: current ruleset generation (bumped by hot reloads; 0 = initial)
    generation: int = 0
    #: worker index within a fleet (``None`` for a lone server)
    worker: Optional[int] = None
    #: number of live workers behind this snapshot (1 for a lone
    #: server, N for a merged fleet snapshot)
    workers: int = 1

    @property
    def throughput_bps(self) -> Optional[float]:
        """Scan throughput in bytes/second while busy (``None`` until
        the first byte is scanned)."""
        if self.busy_seconds <= 0:
            return None
        return self.bytes_scanned / self.busy_seconds

    def as_dict(self) -> dict:
        """JSON-ready mapping (includes the derived throughput)."""
        payload = asdict(self)
        payload["throughput_bps"] = self.throughput_bps
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServerStats":
        """Rebuild a snapshot from its :meth:`as_dict` / ``STATS`` wire
        form (derived keys like ``throughput_bps`` are dropped)."""
        return cls(
            **{k: v for k, v in payload.items() if k in cls.__dataclass_fields__}
        )


@dataclass
class StatsCounters:
    """The mutable accumulator behind :class:`ServerStats`.

    All mutation happens on the server's event loop (worker threads
    hand their timings back through the loop), so plain int/float
    fields need no locking.
    """

    engine: str
    connections_open: int = 0
    connections_total: int = 0
    streams_open: int = 0
    streams_total: int = 0
    bytes_scanned: int = 0
    matches_emitted: int = 0
    feeds: int = 0
    errors: int = 0
    busy_seconds: float = 0.0
    generation: int = 0
    worker: Optional[int] = None
    started: float = field(default_factory=time.monotonic)

    def connection_opened(self) -> None:
        self.connections_open += 1
        self.connections_total += 1

    def connection_closed(self) -> None:
        self.connections_open -= 1

    def stream_opened(self) -> None:
        self.streams_open += 1
        self.streams_total += 1

    def stream_closed(self) -> None:
        self.streams_open -= 1

    def record_feed(
        self, nbytes: int, matches: int, seconds: float, frames: int = 1
    ) -> None:
        """Account one executed FEED batch: total payload size, emitted
        matches, backend seconds, and how many wire frames it covered
        (the server batches same-stream frames per executor hop)."""
        self.feeds += frames
        self.bytes_scanned += nbytes
        self.matches_emitted += matches
        self.busy_seconds += seconds

    def record_finish(self, matches: int, seconds: float) -> None:
        """Account one CLOSE: end-gated matches and backend time."""
        self.matches_emitted += matches
        self.busy_seconds += seconds

    def record_error(self) -> None:
        self.errors += 1

    def snapshot(self) -> ServerStats:
        """Freeze the current counters into a :class:`ServerStats`."""
        return ServerStats(
            engine=self.engine,
            connections_open=self.connections_open,
            connections_total=self.connections_total,
            streams_open=self.streams_open,
            streams_total=self.streams_total,
            bytes_scanned=self.bytes_scanned,
            matches_emitted=self.matches_emitted,
            feeds=self.feeds,
            errors=self.errors,
            busy_seconds=self.busy_seconds,
            uptime_seconds=time.monotonic() - self.started,
            generation=self.generation,
            worker=self.worker,
        )


def merge_server_stats(snapshots: Sequence[ServerStats]) -> ServerStats:
    """Fold per-worker snapshots into one fleet-wide :class:`ServerStats`.

    Counters sum (including ``busy_seconds`` -- the fleet's aggregate
    ``throughput_bps`` is total bytes over total backend seconds, i.e.
    per-worker average, not wall-clock rate); ``uptime_seconds`` takes
    the oldest worker; ``generation`` takes the minimum, so a fleet
    mid-rollout reports the generation every worker has *at least*
    reached; ``worker`` collapses to ``None`` and ``workers`` counts
    the inputs.

    The merge has an identity: an **empty** input returns a neutral
    snapshot (``engine="none"``, ``workers=0``, every counter zero) and
    a one-element input returns its counters unchanged (``worker``
    still collapses to ``None``; ``workers`` keeps the input's count).
    Scatter-gather callers (:mod:`repro.serve.cluster`) fold whatever
    shard subset responded without special-casing 0 or 1 shards.

    >>> from repro.serve.stats import ServerStats, merge_server_stats
    >>> a = ServerStats(engine="block", bytes_scanned=10, generation=2)
    >>> b = ServerStats(engine="block", bytes_scanned=32, generation=1)
    >>> merged = merge_server_stats([a, b])
    >>> (merged.bytes_scanned, merged.generation, merged.workers)
    (42, 1, 2)
    >>> empty = merge_server_stats([])
    >>> (empty.engine, empty.workers, empty.bytes_scanned)
    ('none', 0, 0)
    >>> merge_server_stats([a]).bytes_scanned
    10
    """
    if not snapshots:
        return ServerStats(engine="none", workers=0)
    return ServerStats(
        engine=snapshots[0].engine,
        connections_open=sum(s.connections_open for s in snapshots),
        connections_total=sum(s.connections_total for s in snapshots),
        streams_open=sum(s.streams_open for s in snapshots),
        streams_total=sum(s.streams_total for s in snapshots),
        bytes_scanned=sum(s.bytes_scanned for s in snapshots),
        matches_emitted=sum(s.matches_emitted for s in snapshots),
        feeds=sum(s.feeds for s in snapshots),
        errors=sum(s.errors for s in snapshots),
        busy_seconds=sum(s.busy_seconds for s in snapshots),
        uptime_seconds=max(s.uptime_seconds for s in snapshots),
        generation=min(s.generation for s in snapshots),
        worker=None,
        workers=sum(s.workers for s in snapshots),
    )
