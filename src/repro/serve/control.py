"""Operator control channel: a unix-socket line protocol for the fleet.

Signals only carry one bit, and only from the same machine's shell;
fleet tooling (health checks, deploy scripts, the CI smoke) wants a
real request/response channel.  :class:`ControlServer` listens on a
unix domain socket next to the serving port and speaks five verbs,
newline-framed UTF-8, one reply line per command::

    PING              -> PONG
    GEN               -> GEN <generation>
    STATS             -> STATS <one-line ServerStats JSON>
    RELOAD            -> OK RELOAD <new-generation>   (or ERR <why>)
    STOP              -> OK STOP   (then the target begins draining)

The server is deliberately duck-typed over its ``target``: anything
with a ``generation`` attribute, ``stats() -> ServerStats``, and
``reload() -> int`` works -- a :class:`~repro.serve.fleet.WorkerFleet`
directly (its ``reload()`` recompiles the rules it holds), or the
fleet as ``repro serve --control`` wraps it, whose ``reload()``
re-reads ``--rules`` exactly as SIGHUP does.  ``STOP`` invokes the
``on_stop`` callback, so shutdown policy stays with the owner.

Commands are handled sequentially per connection and the handler is
one thread per client -- a control socket sees operators and scripts,
not traffic, so simplicity beats concurrency here.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import Callable, Optional

__all__ = ["ControlServer", "ControlClient"]

#: one control line (request or reply) never exceeds this
MAX_CONTROL_LINE = 1 << 20


class ControlServer:
    """Serve the control verbs for ``target`` on a unix socket ``path``.

    Starts a daemon accept thread (:meth:`start`), one handler thread
    per connection; :meth:`stop` closes the listener and unlinks the
    socket path.  A stale socket file from a crashed previous run is
    replaced on bind.
    """

    def __init__(
        self,
        target,
        path: str,
        on_stop: Optional[Callable[[], None]] = None,
    ):
        self.target = target
        self.path = path
        self.on_stop = on_stop
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    def start(self) -> "ControlServer":
        if self._sock is not None:
            raise RuntimeError("control server already started")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            try:
                sock.bind(self.path)
            except OSError:
                # a previous run's stale socket file: confirm nothing
                # is listening, then replace it
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.path)
                except OSError:
                    probe.close()
                    os.unlink(self.path)
                    sock.bind(self.path)
                else:
                    probe.close()
                    raise
            sock.listen(8)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._closing = False
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-control", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and remove the socket file (idempotent)."""
        self._closing = True
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "ControlServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- internals ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            sock = self._sock
            if sock is None:
                return
            try:
                client, _ = sock.accept()
            except OSError:
                return  # listener closed: shutting down
            threading.Thread(
                target=self._handle, args=(client,), daemon=True
            ).start()

    def _handle(self, client: socket.socket) -> None:
        with client:
            reader = client.makefile("rb")
            try:
                for raw in reader:
                    if len(raw) > MAX_CONTROL_LINE:
                        break
                    line = raw.decode("utf-8", "replace").strip()
                    if not line:
                        continue
                    if line == "QUIT":
                        client.sendall(b"BYE\n")
                        return
                    try:
                        reply = self._dispatch(line)
                    except Exception as exc:  # noqa: BLE001 - wire reply
                        reply = f"ERR {type(exc).__name__}: {exc}"
                    try:
                        client.sendall(reply.encode("utf-8") + b"\n")
                    except OSError:
                        return
                    if line == "STOP" and self.on_stop is not None:
                        # reply first, then trigger: the caller sees
                        # the acknowledgement even if stopping tears
                        # this very socket down
                        self.on_stop()
            finally:
                reader.close()

    def _dispatch(self, line: str) -> str:
        if line == "PING":
            return "PONG"
        if line == "GEN":
            return f"GEN {self.target.generation}"
        if line == "STATS":
            snapshot = self.target.stats().as_dict()
            return "STATS " + json.dumps(snapshot, sort_keys=True)
        if line == "RELOAD":
            return f"OK RELOAD {self.target.reload()}"
        if line == "STOP":
            return "OK STOP"
        return f"ERR unknown control command {line!r}"


class ControlClient:
    """Blocking client for :class:`ControlServer` (operator tooling).

    >>> # doctest-style usage (needs a running server):
    >>> # with ControlClient("/run/repro.sock") as ctl:
    >>> #     ctl.ping(); ctl.generation(); ctl.reload(); ctl.stats()
    """

    def __init__(self, path: str, timeout: float = 30.0):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def command(self, line: str) -> str:
        """Send one verb, return its (stripped) reply line."""
        self._sock.sendall(line.encode("utf-8") + b"\n")
        reply = self._reader.readline()
        if not reply:
            raise ConnectionError("control server closed the connection")
        return reply.decode("utf-8").strip()

    def ping(self) -> bool:
        return self.command("PING") == "PONG"

    def generation(self) -> int:
        reply = self.command("GEN")
        return int(reply.split(" ", 1)[1])

    def reload(self) -> int:
        reply = self.command("RELOAD")
        if not reply.startswith("OK RELOAD "):
            raise RuntimeError(reply)
        return int(reply.rsplit(" ", 1)[1])

    def stats(self) -> dict:
        reply = self.command("STATS")
        if not reply.startswith("STATS "):
            raise RuntimeError(reply)
        return json.loads(reply.split(" ", 1)[1])

    def stop(self) -> None:
        reply = self.command("STOP")
        if reply != "OK STOP":
            raise RuntimeError(reply)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
