"""The ``"reference"`` backend: the node-by-node executable spec.

Wraps :class:`~repro.hardware.simulator.NetworkSimulator` behind the
scanner surface.  The simulator steps one byte at a time over Python
node objects and carries all state on itself, so the adapter streams
chunk by chunk without buffering -- ``feed`` simply extends the run
and diffs the distinct-report set.

This backend interprets the *network*, not the lowered tables, so it
is only applicable when the tables still carry their source network
(``TransitionTables.network`` -- set by ``compile_tables`` and
preserved through pickling, cache artifacts, and worker shipment).  It
is never picked by ``engine="auto"``: it exists as the semantics
oracle the fast backends are differentially tested against, at a
couple of orders of magnitude lower throughput.
"""

from __future__ import annotations

from typing import Optional

from ...hardware.simulator import NetworkSimulator
from ..scanner import Chunk, coerce_chunk
from ..tables import TransitionTables
from .base import Backend

__all__ = ["ReferenceBackend", "ReferenceScanner"]


class ReferenceScanner:
    """Streaming scanner surface over the reference simulator."""

    def __init__(self, tables: TransitionTables):
        if tables.network is None:
            raise ValueError(
                "reference backend needs TransitionTables.network; these "
                "tables were built without their source network"
            )
        self.tables = tables
        self._sim = NetworkSimulator(tables.network)
        self.reset()

    def reset(self) -> None:
        self._sim.reset()
        self._finished = False
        #: distinct (position, report_id) pairs seen so far
        self.reports: set[tuple[int, Optional[str]]] = set()

    @property
    def stats(self):
        return self._sim.stats

    @property
    def bytes_fed(self) -> int:
        return self._sim.cycle

    def feed(self, chunk: Chunk) -> list[tuple[int, Optional[str]]]:
        """Consume one chunk; return reports newly added by it."""
        if self._finished:
            raise RuntimeError("feed() after finish(); call reset() to rescan")
        chunk = coerce_chunk(chunk)
        seen_events = len(self._sim.reports)
        self._sim.run(chunk)
        new: list[tuple[int, Optional[str]]] = []
        for event in self._sim.reports[seen_events:]:
            pair = (event.position, event.report_id)
            if pair not in self.reports:
                self.reports.add(pair)
                new.append(pair)
        return new

    def finish(self) -> set[tuple[int, Optional[str]]]:
        """Mark end-of-stream; returns the distinct report set."""
        self._finished = True
        return self.reports

    def scan(self, data: Chunk) -> set[tuple[int, Optional[str]]]:
        """Reset, consume ``data`` as one chunk, finish."""
        self.reset()
        self.feed(data)
        return self.finish()

    def match_ends(self, data: Chunk) -> list[int]:
        """Distinct report positions, for differential testing."""
        self.scan(data)
        return sorted({position for position, _ in self.reports})


class ReferenceBackend(Backend):
    name = "reference"
    description = (
        "cycle-accurate node-by-node simulator (the executable "
        "specification; slow, for validation)"
    )
    stats_exact = True
    streaming = True

    def applicable(self, tables: TransitionTables) -> bool:
        return tables.network is not None

    def auto_priority(self, tables: TransitionTables) -> Optional[int]:
        # never auto-picked: it is the oracle, not a serving engine
        return None

    def make_scanner(self, tables: TransitionTables) -> ReferenceScanner:
        return ReferenceScanner(tables)
