"""repro.serve: the async match-serving subsystem.

The network layer over the session API (:mod:`repro.session`): one
compiled ruleset -- any :class:`~repro.session.Matcher`, any
registered execution backend -- served to N concurrent TCP clients,
each multiplexing tagged streams over a line protocol with
length-prefixed payloads.  The pieces:

* :mod:`repro.serve.protocol` -- the framing grammar and codec
  (spec: ``docs/SERVING.md``);
* :mod:`repro.serve.server` -- :class:`MatchServer`: asyncio
  acceptor, per-connection bounded job queues (backpressure by not
  reading), CPU-bound ``feed``/``finish`` off-loaded to the shared
  :class:`~repro.engine.parallel.FeedPool`, graceful drain on stop;
* :mod:`repro.serve.stats` -- :class:`ServerStats` load snapshots
  (the ``STATS`` wire command);
* :mod:`repro.serve.client` -- :class:`MatchClient` and the one-shot
  :func:`scan_tagged_remote`, mirrors of
  :class:`~repro.session.MultiStreamScanner` over the wire;
* :mod:`repro.serve.fleet` -- :class:`WorkerFleet`: the one
  supervisor of worker processes, each a full ``MatchServer`` warmed
  from the shared ruleset cache: N replicas sharing one ``host:port``
  via ``SO_REUSEPORT`` (or a passed listener), or one rule bucket per
  worker on its own port (a cluster), with hot ruleset reload
  (generation-stamped ``MATCH`` lines, atomic :class:`MatcherHandle`
  swap) and crash respawn on the worker's own spec and port;
* :mod:`repro.serve.control` -- :class:`ControlServer` /
  :class:`ControlClient`: the unix-socket operator channel
  (``PING``/``GEN``/``STATS``/``RELOAD``/``STOP``);
* :mod:`repro.serve.cluster` -- :class:`RemoteShardedMatcher`: the
  :class:`~repro.session.Matcher` protocol over M remote servers each
  holding one ruleset *shard* (same dedup + round-robin policy as
  :class:`~repro.engine.parallel.ShardedMatcher`), with lockstep
  FEED fan-out, merged match streams, and
  :class:`ClusterPartialResultError` on mid-flight shard failure;
  :class:`LocalShardCluster` is the fleet whose workers are those
  shards, run locally;
* :mod:`repro.serve.worker` -- the one worker bootstrap behind every
  fleet worker, replica or shard (:class:`MatcherSpec` recipe, child
  entry point, parent-side process handle).

CLI: ``python -m repro serve --rules ... --port ... [--workers N
--reload --control PATH]``, ``python -m repro connect --port ...``,
and ``python -m repro cluster [--rules ... --shards M | --attach
host:port,...]``.

A served stream emits exactly the matches an offline session would --
same events, same order, same ``$``-gating -- which the end-to-end
tests (``tests/serve/test_server.py``) assert against
:class:`~repro.session.MultiStreamScanner` down to the event level.
"""

from .client import (
    MatchClient,
    ServerError,
    StreamSummary,
    backoff_delays,
    scan_tagged_remote,
)
from .cluster import (
    ClusterPartialResultError,
    LocalShardCluster,
    RemoteShardedMatcher,
)
from .control import ControlClient, ControlServer
from .fleet import FleetError, MatcherSpec, WorkerFleet, reuse_port_supported
from .protocol import ProtocolError
from .server import MatcherHandle, MatchServer
from .stats import ServerStats, merge_server_stats

__all__ = [
    "MatchServer",
    "MatcherHandle",
    "MatchClient",
    "ServerStats",
    "StreamSummary",
    "ProtocolError",
    "ServerError",
    "WorkerFleet",
    "MatcherSpec",
    "FleetError",
    "ControlServer",
    "ControlClient",
    "ClusterPartialResultError",
    "LocalShardCluster",
    "RemoteShardedMatcher",
    "backoff_delays",
    "merge_server_stats",
    "reuse_port_supported",
    "scan_tagged_remote",
]
