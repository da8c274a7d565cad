"""The one supervisor of ``MatchServer`` worker processes.

One asyncio :class:`~repro.serve.server.MatchServer` is GIL-bound:
aggregate serve throughput is capped near one core's sweep rate no
matter how many clients connect.  :class:`WorkerFleet` is the
scale-out layer, and the only code that spawns, watches, respawns,
reloads and stops a :class:`~repro.serve.worker.WorkerProcess`.  It
supervises a list of worker *slots*, each a :class:`MatcherSpec` on a
reserved port, in one of two shapes:

* **replicas** (``WorkerFleet(rules, workers=N)``): N slots with the
  whole ruleset on one ``host:port`` -- the same story as
  kernel-sharded IDS deployments.  Each worker binds the port with
  ``SO_REUSEPORT``, so the kernel shards accepted connections across
  workers by 4-tuple hash (zero parent involvement per connection);
* **shards** (:class:`~repro.serve.cluster.LocalShardCluster`): one
  slot per round-robin rule bucket
  (:func:`~repro.compiler.pipeline.dedupe_rules` then
  :func:`~repro.engine.parallel.shard_rules`), each on its own port --
  the paper's rule subsets on separate banks.

The mechanics are the same for both:

* the parent **reserves** every port before any fork and holds it for
  the fleet's life, so a respawned worker comes back on the same
  address.  With ``SO_REUSEPORT`` the reservation is a bound,
  never-listening placeholder; on platforms without it the parent
  binds one listening socket per port and passes it to that port's
  workers instead (classic pre-fork accept);
* each worker runs a **full** server -- own
  :class:`~repro.matching.RulesetMatcher`, own
  :class:`~repro.engine.parallel.FeedPool` -- built from its slot's
  picklable :class:`MatcherSpec` by the shared
  :mod:`repro.serve.worker` bootstrap.  The parent compiles each
  distinct spec once first, so every worker warm-starts from the
  shared compiled-ruleset cache (``cache_hit`` is reported in each
  worker's ready event);
* **hot reload** (:meth:`WorkerFleet.reload`): the parent compiles
  the new ruleset (re-bucketed, for shards) into the cache, assigns
  the next fleet-wide generation, and sends each worker its own spec;
  each worker loads the artifact off-loop and atomically swaps its
  :class:`~repro.serve.server.MatcherHandle`.  In-flight streams
  drain on the tables they pinned at ``OPEN``; streams opened after
  the swap scan -- and stamp their ``MATCH``/``CLOSED`` lines -- with
  the new generation.  No connection is dropped;
* **supervision**: a monitor thread respawns crashed workers (at the
  current generation, on their slot's spec and port) within
  ``restart_budget``; :meth:`WorkerFleet.stats` merges per-worker
  snapshots into one fleet-wide :class:`~repro.serve.stats.ServerStats`
  via :func:`~repro.serve.stats.merge_server_stats`.

Parent and workers talk over the :mod:`repro.serve.worker` pipe
protocol; the data plane never touches the parent.  The supervisor is
synchronous by design -- it is control plane only, driven from the
CLI's signal handlers or a :class:`~repro.serve.control.ControlServer`.
"""

from __future__ import annotations

import socket
import tempfile
import threading
from dataclasses import replace
from typing import Iterable, Optional, Sequence, Union

from ..compiler.pipeline import normalize_rules
from ..engine.parallel import mp_context
from .stats import ServerStats, merge_server_stats
from .worker import MatcherSpec, WorkerConfig, WorkerError, WorkerProcess, stop_workers

__all__ = [
    "FleetError",
    "MatcherSpec",
    "WorkerFleet",
    "reuse_port_supported",
]

#: per-worker allowance for a reload acknowledgement
RELOAD_TIMEOUT = 120.0
#: per-worker allowance for a stats round-trip
STATS_TIMEOUT = 10.0


#: The fleet could not start, reload, or reach its workers -- the
#: shared worker handle's error under the fleet's historical name.
FleetError = WorkerError


def reuse_port_supported() -> bool:
    """True when this platform accepts ``SO_REUSEPORT`` on TCP sockets."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    except OSError:  # pragma: no cover - no TCP at all
        return False
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:  # pragma: no cover - kernel without the option
        return False
    finally:
        probe.close()
    return True


class WorkerFleet:
    """Supervise N ``MatchServer`` processes sharing one ``host:port``.

    Synchronous control-plane API (see the module docstring for the
    architecture)::

        fleet = WorkerFleet(rules, workers=4, port=0)
        fleet.start()                  # forks, waits for every ready
        fleet.port                     # the shared bound port
        fleet.stats()                  # merged fleet ServerStats
        fleet.reload()                 # recompile + swap, same rules
        fleet.reload(rules=new_rules)  # swap to a new ruleset
        fleet.stop(drain=True)         # graceful fleet-wide drain

    Args mirror ``MatchServer`` plus the fleet knobs: ``workers``
    (process count), ``threads`` (each worker's FeedPool),
    ``restart_budget`` (crash respawns before the fleet gives up),
    ``reuse_port`` (``None`` auto-detects; ``False`` forces the
    pass-the-listener fallback).  ``**compile_options`` are the
    :class:`MatcherSpec` fields (``engine``, ``unfold_threshold``,
    ``opt_level``, ``cache_dir``); ``cache_dir=None`` makes a private
    temp cache so workers still warm-start.  Every worker serves the
    whole ruleset; to split one, run a cluster
    (:class:`~repro.serve.cluster.LocalShardCluster`, this class with
    one rule bucket and one port per worker).
    """

    def __init__(
        self,
        rules: Union[Iterable[str], Sequence[tuple[str, str]]],
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 32,
        threads: Optional[int] = None,
        drain_timeout: float = 10.0,
        restart_budget: int = 3,
        reuse_port: Optional[bool] = None,
        **compile_options,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.host = host
        self.port = port
        self.queue_depth = queue_depth
        self.threads = threads
        self.drain_timeout = drain_timeout
        self.restart_budget = restart_budget
        self.generation = 0
        self.restarts = 0
        #: ``(rule_id, reason)`` of every rule the parent's compile of
        #: the current ruleset skipped (set by :meth:`start` / :meth:`reload`)
        self.skipped: list[tuple[str, str]] = []
        #: merged final ServerStats captured by :meth:`stop`
        self.final_stats: Optional[ServerStats] = None
        self._options = compile_options
        #: one spec per worker slot
        self._specs = self._slot_specs(rules)
        #: requested port per listening address: one, shared by every
        #: replica (a shard cluster asks for one per worker)
        self._ports = [port]
        #: the reserved socket per listening address, held from
        #: :meth:`start` to :meth:`stop` so respawns keep the port
        self._sockets: list[socket.socket] = []
        self._reuse_requested = reuse_port
        self._reuse = False
        self._ctx = None
        self._workers: list[WorkerProcess] = []
        self._tmp_cache: Optional[tempfile.TemporaryDirectory] = None
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False

    def _slot_specs(self, rules) -> list[MatcherSpec]:
        """One :class:`MatcherSpec` per worker slot for ``rules``:
        every replica holds the whole ruleset."""
        spec = MatcherSpec(rules=tuple(normalize_rules(rules)), **self._options)
        return [spec] * self.workers

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerFleet":
        """Reserve the port(s), fork the workers, wait for every ready.

        Bind failures propagate as ``OSError`` before anything is
        forked (the CLI turns them into a one-line error); worker
        startup failures raise :class:`FleetError` after tearing down
        what already started.
        """
        if self._started:
            raise RuntimeError("fleet already started")
        self._ctx = mp_context()
        if self._ctx is None:
            raise FleetError("multiprocessing is unavailable on this platform")
        try:
            import multiprocessing

            multiprocessing.allow_connection_pickling()
        except Exception:  # pragma: no cover - best-effort (spawn only)
            pass
        if self._options.get("cache_dir") is None:
            # a private cache still pays off: the parent's validation
            # compile below populates it, so all N workers warm-start
            self._tmp_cache = tempfile.TemporaryDirectory(
                prefix="repro-fleet-cache-"
            )
            self._options["cache_dir"] = self._tmp_cache.name
            self._specs = [
                replace(spec, cache_dir=self._tmp_cache.name)
                for spec in self._specs
            ]
        # compile once in the parent: validates the ruleset before any
        # worker exists and fills the shared cache
        self.skipped = _compile_in_parent(self._specs)
        self._started = True
        try:
            self._reserve_ports()
            for index in range(self.workers):
                self._workers.append(self._spawn(index))
        except BaseException:
            self.stop(drain=False)
            raise
        self._stop_event.clear()
        self._monitor = threading.Thread(
            target=self._watch, name="repro-fleet-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _reserve_ports(self) -> None:
        self._reuse = (
            reuse_port_supported()
            if self._reuse_requested is None
            else self._reuse_requested
        )
        for port in self._ports:
            self._sockets.append(self._reserve(port))
        self.host, self.port = self._sockets[0].getsockname()[:2]

    def _reserve(self, port: int) -> socket.socket:
        if self._reuse and port:
            # SO_REUSEPORT lets a socket join a port that another
            # SO_REUSEPORT server of this user already holds: an
            # exclusive probe bind makes a taken fixed port fail here
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind((self.host, port))
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if self._reuse:
                # bound but never listen()ed: a non-listening socket
                # gets no SYNs, so it only pins the port for the
                # workers' own SO_REUSEPORT binds
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, port))
            if not self._reuse:
                # fallback: one parent listening socket per port, passed
                # to its workers (the kernel wakes one acceptor per
                # connection)
                sock.listen(128)
        except BaseException:
            sock.close()
            raise
        return sock

    def _spawn(self, index: int) -> WorkerProcess:
        """Fork slot ``index``'s worker on its spec and port at the
        current generation and wait for its ready event.  Callers hold
        the lock (or are single-threaded start)."""
        # replicas share the one socket; shard i has socket i
        sock = self._sockets[index % len(self._sockets)]
        config = WorkerConfig(
            index=index,
            host=self.host,
            port=sock.getsockname()[1],
            queue_depth=self.queue_depth,
            threads=self.threads,
            drain_timeout=self.drain_timeout,
            reuse_port=self._reuse,
            generation=self.generation,
        )
        return WorkerProcess(
            self._ctx, self._specs[index], config,
            None if self._reuse else sock,
        )

    # -- control plane -----------------------------------------------------
    def reload(self, rules=None) -> int:
        """Hot-swap the fleet's ruleset; return the new generation.

        ``rules=None`` recompiles the current rules (a cache-warm
        no-op swap -- useful to confirm the path); otherwise the new
        ruleset replaces the old one fleet-wide, split into one spec
        per slot as at construction.  The parent compiles first, so an
        unusable ruleset -- empty, or every rule failed to compile --
        fails *here* as :class:`FleetError` with no worker touched
        (partial skips stay permissive, mirroring ``repro serve``
        startup), and the workers' own builds are cache warm starts.
        Every worker acknowledges before this returns; in-flight
        client streams are never dropped (they drain on their pinned
        tables).
        """
        with self._lock:
            self._require_started()
            specs = self._specs if rules is None else self._slot_specs(rules)
            skipped = _compile_in_parent(specs)
            total = sum(len(spec.rules) for spec in dict.fromkeys(specs))
            if rules is not None and skipped and len(skipped) >= total:
                reasons = "; ".join(f"{tag}: {why}" for tag, why in skipped)
                raise FleetError(
                    f"reload rejected, no rule compiled ({reasons})"
                )
            generation = self.generation + 1
            for worker, spec in zip(self._workers, specs):
                worker.conn.send({
                    "cmd": "reload",
                    "generation": generation,
                    "spec": None if rules is None else spec,
                })
            for worker in self._workers:
                event = worker.await_event(
                    {"reloaded", "reload_failed"}, RELOAD_TIMEOUT
                )
                if event["event"] != "reloaded":
                    raise FleetError(
                        f"worker {worker.index} reload failed: "
                        f"{event.get('message')}"
                    )
            self._specs = specs
            self.skipped = skipped
            self.generation = generation
            return generation

    def worker_stats(self) -> list[ServerStats]:
        """One fresh :class:`ServerStats` per reachable worker."""
        with self._lock:
            self._require_started()
            snapshots: list[ServerStats] = []
            for worker in self._workers:
                try:
                    worker.conn.send({"cmd": "stats"})
                    event = worker.await_event({"stats"}, STATS_TIMEOUT)
                except (FleetError, OSError, BrokenPipeError):
                    continue  # mid-crash: the monitor will respawn it
                snapshots.append(ServerStats.from_dict(event["stats"]))
            if not snapshots:
                raise FleetError("no live workers answered STATS")
            return snapshots

    def stats(self) -> ServerStats:
        """The merged fleet-wide snapshot (counters summed across
        workers; see :func:`~repro.serve.stats.merge_server_stats`)."""
        return merge_server_stats(self.worker_stats())

    @property
    def alive(self) -> int:
        """Currently live worker processes."""
        with self._lock:
            return sum(1 for w in self._workers if w.process.is_alive())

    @property
    def cache_hits(self) -> list[bool]:
        """Per-worker warm-start flags (did each worker load its
        compiled ruleset from the shared cache instead of compiling?).
        All-true after a normal start: the parent's validation compile
        fills the cache before any worker forks."""
        with self._lock:
            return [w.cache_hit for w in self._workers]

    @property
    def address(self) -> tuple[str, int]:
        """The shared ``(host, port)`` every worker serves on."""
        return (self.host, self.port)

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("fleet not started")

    # -- supervision -------------------------------------------------------
    def _watch(self) -> None:
        """Monitor thread: respawn dead workers within the budget."""
        while not self._stop_event.wait(0.2):
            with self._lock:
                if self._stop_event.is_set():
                    return
                for slot, worker in enumerate(self._workers):
                    if worker.process.is_alive():
                        continue
                    if self.restarts >= self.restart_budget:
                        return  # budget exhausted: stop supervising
                    self.restarts += 1
                    worker.kill()  # already dead: reaps it, closes the pipe
                    try:
                        self._workers[slot] = self._spawn(slot)
                    except (FleetError, OSError):
                        continue  # next tick retries (budget permitting)

    # -- shutdown ----------------------------------------------------------
    def stop(self, drain: bool = True) -> ServerStats:
        """Stop every worker (gracefully by default) and release the
        port(s).  Idempotent.  Returns -- and keeps as
        :attr:`final_stats` -- the merge of the workers' parting
        snapshots (a neutral snapshot if none answered)."""
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            finals = stop_workers(
                self._workers, drain, self.drain_timeout + 5.0 if drain else 5.0
            )
            if finals:
                self.final_stats = merge_server_stats(finals)
            self._workers = []
        for sock in self._sockets:
            sock.close()
        self._sockets = []
        if self._tmp_cache is not None:
            self._tmp_cache.cleanup()
            self._tmp_cache = None
        self._started = False
        if self.final_stats is None:
            return merge_server_stats([])
        return self.final_stats

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop(drain=exc_type is None)
        return False


def _compile_in_parent(specs: Sequence[MatcherSpec]) -> list[tuple[str, str]]:
    """Build each distinct spec once (validating it and filling the
    shared cache, so every worker warm-starts); the skipped rules."""
    return [entry for spec in dict.fromkeys(specs) for entry in spec.build().skipped]
