"""The one worker bootstrap behind every spawned ``MatchServer``.

Every worker of a :class:`~repro.serve.fleet.WorkerFleet` -- a replica
of ``repro serve`` or a shard of a
:class:`~repro.serve.cluster.LocalShardCluster` -- is the same thing:
a child process that builds a matcher from a picklable
:class:`MatcherSpec`, serves it as one
:class:`~repro.serve.server.MatchServer`, and talks to its parent over
a :func:`multiprocessing.Pipe` carrying small dict messages (``ready``
/ ``reload`` / ``stats`` / ``ping`` / ``stop`` / ``stopped``).  This
module owns both halves of that contract -- the child entry point
:func:`worker_main` and the parent-side :class:`WorkerProcess` handle
(spawn, liveness-checked event wait, stop / join / kill that leaves no
process or pipe behind) -- and :class:`MatcherSpec`, the only place
the serving stack declares the compile options (the fleet forwards
its ``**compile_options`` to it).  The fleet is the only caller of
:class:`WorkerProcess` and :func:`stop_workers`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

from .stats import ServerStats

__all__ = ["MatcherSpec", "WorkerConfig", "WorkerError", "WorkerProcess", "stop_workers"]

#: worker startup allowance (first-ever compile of a big ruleset can
#: be slow; respawns and warm starts are far under this)
READY_TIMEOUT = 120.0


class WorkerError(RuntimeError):
    """A worker process failed to start, died, or stopped answering."""


@dataclass(frozen=True)
class MatcherSpec:
    """A picklable recipe for building one worker's matcher.

    Workers cannot receive a live matcher (scanner state is not
    picklable and must not be shared across processes anyway), so the
    fleet ships the *recipe*: the normalized rules plus the
    compile options of ``repro serve``/``cluster``.  :meth:`build` is
    the single construction path used by the parent's validation
    compile, every worker's startup, and every reload; it always builds
    one :class:`~repro.matching.RulesetMatcher` -- a ruleset is split
    only across a cluster's shard processes, each of which gets a spec
    holding its own slice.
    """

    rules: tuple[tuple[str, str], ...]
    engine: Optional[str] = None
    unfold_threshold: float = 0
    opt_level: int = 0
    cache_dir: Optional[str] = None

    def build(self):
        """Compile (or warm-start from cache) and return the matcher."""
        from ..engine.backends import AUTO_ENGINE
        from ..matching import RulesetMatcher

        return RulesetMatcher(
            list(self.rules),
            unfold_threshold=self.unfold_threshold,
            engine=self.engine or AUTO_ENGINE,
            opt_level=self.opt_level,
            cache_dir=self.cache_dir,
        )


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker serving parameters (picklable, like the spec)."""

    index: int
    host: str
    port: int
    queue_depth: int
    threads: Optional[int]
    drain_timeout: float
    reuse_port: bool = False
    generation: int = 0


# -- worker process --------------------------------------------------------
def worker_main(spec, config, conn, listen_sock=None):
    """Process entry point: run one MatchServer until told to stop.

    Module-level (not a closure) so it works under the ``spawn`` start
    method too.  SIGHUP/SIGINT are ignored here -- the *parent* owns
    reload and shutdown coordination, and terminal-delivered signals
    hit the whole process group; a direct SIGTERM still drains
    gracefully as a fallback for kill-one-worker operations.
    """
    import asyncio

    def report(event: str, **fields) -> None:
        conn.send({"event": event, "worker": config.index, **fields})

    for signum in ("SIGHUP", "SIGINT"):
        if hasattr(signal, signum):
            try:
                signal.signal(getattr(signal, signum), signal.SIG_IGN)
            except (OSError, ValueError):  # pragma: no cover - exotic env
                pass
    try:
        asyncio.run(_worker_async(spec, config, conn, listen_sock, report))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        try:
            report("error", message=f"{type(exc).__name__}: {exc}")
        except (OSError, BrokenPipeError, ValueError):
            pass
        raise


async def _worker_async(spec, config, conn, listen_sock, report):
    import asyncio

    from .server import MatcherHandle, MatchServer

    loop = asyncio.get_running_loop()
    matcher = spec.build()
    handle = MatcherHandle(matcher, generation=config.generation)
    server = MatchServer(
        handle,
        host=config.host,
        port=config.port,
        engine=spec.engine,
        queue_depth=config.queue_depth,
        workers=config.threads,
        drain_timeout=config.drain_timeout,
        sock=listen_sock,
        reuse_port=config.reuse_port,
        worker=config.index,
    )
    await server.start()

    mailbox: asyncio.Queue = asyncio.Queue()

    def on_readable() -> None:
        try:
            while conn.poll():
                mailbox.put_nowait(conn.recv())
        except (EOFError, OSError):
            # parent hung up: treat as an immediate stop request
            mailbox.put_nowait({"cmd": "stop", "drain": False})

    loop.add_reader(conn.fileno(), on_readable)
    if hasattr(signal, "SIGTERM"):
        try:
            loop.add_signal_handler(
                signal.SIGTERM,
                lambda: mailbox.put_nowait({"cmd": "stop", "drain": True}),
            )
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    report(
        "ready",
        pid=os.getpid(),
        port=server.port,
        generation=handle.generation,
        # did the matcher warm-start entirely from the shared cache?
        cache_hit=bool(matcher.compile_info.cache_hit),
    )
    drain = True
    while True:
        message = await mailbox.get()
        cmd = message.get("cmd")
        if cmd == "stop":
            drain = bool(message.get("drain", True))
            break
        if cmd == "stats":
            report("stats", stats=server.stats().as_dict())
        elif cmd == "reload":
            new_spec = message.get("spec") or spec
            try:
                generation = await server.reload(
                    new_spec.build, generation=message.get("generation")
                )
            except Exception as exc:  # noqa: BLE001 - reported, not fatal:
                # the worker keeps serving the old generation
                report("reload_failed", message=f"{type(exc).__name__}: {exc}")
            else:
                spec = new_spec
                report("reloaded", generation=generation)
        elif cmd == "ping":
            report("pong")
    loop.remove_reader(conn.fileno())
    await server.stop(drain=drain)
    try:
        report("stopped", stats=server.stats().as_dict())
    except (OSError, BrokenPipeError, ValueError):
        pass


# -- parent-side handle ----------------------------------------------------
class WorkerProcess:
    """Parent-side handle on one spawned worker process.

    The constructor forks the child on ``ctx`` (a
    :func:`~repro.engine.parallel.mp_context`) and returns once it
    reported ``ready``.  A child that fails instead is killed, joined
    and its pipe closed before :class:`WorkerError` -- carrying the
    child's own message -- propagates: nothing is left behind.
    """

    def __init__(self, ctx, spec: MatcherSpec, config: WorkerConfig,
                 listen_sock=None):
        self.index = config.index
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(spec, config, child_conn, listen_sock),
            name=f"repro-serve-worker-{config.index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.pid: Optional[int] = self.process.pid
        try:
            ready = self.await_event({"ready"}, READY_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        #: the port the child's server bound (resolves ``port=0``)
        self.port = int(ready["port"])
        #: did the child load its compiled ruleset from the cache?
        self.cache_hit = bool(ready.get("cache_hit"))

    def await_event(self, kinds: set, timeout: float) -> dict:
        """Next event of one of ``kinds`` (stray late events from
        earlier broadcasts are dropped).  Returns the moment the event
        arrives; a child that died, hung up, or reported ``error``
        raises :class:`WorkerError` instead of running out the clock.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(
                    f"worker {self.index} (pid {self.pid}): no "
                    f"{'/'.join(sorted(kinds))} event within {timeout:.0f}s"
                )
            try:
                if not self.conn.poll(min(remaining, 0.5)):
                    if not self.process.is_alive():
                        raise WorkerError(
                            f"worker {self.index} (pid {self.pid}) died "
                            f"(exit code {self.process.exitcode})"
                        )
                    continue
                message = self.conn.recv()
            except (EOFError, OSError):
                raise WorkerError(
                    f"worker {self.index} (pid {self.pid}) hung up"
                ) from None
            if message.get("event") == "error":
                raise WorkerError(
                    f"worker {self.index}: {message.get('message')}"
                )
            if message.get("event") in kinds:
                return message

    def kill(self) -> None:
        """Hard-stop the child (no drain), reap it, close the pipe.
        Safe on an already-dead worker."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(5.0)
        try:
            self.conn.close()
        except OSError:
            pass


def stop_workers(workers, drain: bool, timeout: float) -> list[ServerStats]:
    """Stop ``workers`` together (they drain in parallel) against one
    shared deadline; returns the parting stats of those that sent
    them.  A straggler is killed at the deadline and every pipe is
    closed, so nothing is left behind either way."""
    for worker in workers:
        try:
            worker.conn.send({"cmd": "stop", "drain": drain})
        except (OSError, BrokenPipeError, ValueError):
            pass  # dead already: reaped below
    deadline = time.monotonic() + timeout
    finals: list[ServerStats] = []
    for worker in workers:
        try:
            event = worker.await_event(
                {"stopped"}, max(0.1, deadline - time.monotonic())
            )
            finals.append(ServerStats.from_dict(event["stats"]))
        except WorkerError:
            pass
        worker.process.join(max(0.1, deadline - time.monotonic()))
        worker.kill()
    return finals
