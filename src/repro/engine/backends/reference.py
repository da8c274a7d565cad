"""The ``"reference"`` backend: the node-by-node executable spec.

Wraps :class:`~repro.hardware.simulator.NetworkSimulator` behind the
scanner surface.  The simulator steps one byte at a time over Python
node objects and carries all state on itself, so the adapter streams
chunk by chunk without buffering -- ``feed`` extends the run and turns
the run's new report events into the shared report columns.

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
from ..scanner import Chunk, ReportColumns, ReportLog, coerce_chunk, columns_of_keys
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
        self._index_of = {rid: i for i, rid in enumerate(tables.report_ids)}
        self.reset()

    def reset(self) -> None:
        self._sim.reset()
        self._finished = False
        self._log = ReportLog()

    @property
    def stats(self):
        return self._sim.stats

    @property
    def bytes_fed(self) -> int:
        return self._sim.cycle

    @property
    def reports(self) -> ReportColumns:
        """Every distinct report so far, decoded only when iterated."""
        return self._log.view(self.tables.report_ids)

    def feed(self, chunk: Chunk) -> ReportColumns:
        """Consume one chunk; return the reports it raised."""
        if self._finished:
            raise RuntimeError("feed() after finish(); call reset() to rescan")
        chunk = coerce_chunk(chunk)
        sim = self._sim
        sim.run(chunk)
        width = len(self.tables.report_ids) or 1
        index_of = self._index_of
        new = columns_of_keys(
            [event.position * width + index_of[event.report_id] for event in sim.reports],
            self.tables.report_ids,
        )
        sim.reports.clear()  # consumed: the log holds them as columns
        self._log.append(new)
        return new

    def finish(self) -> None:
        """Mark end-of-stream."""
        self._finished = True

    def scan(self, data: Chunk) -> ReportColumns:
        """Reset, consume ``data`` as one chunk, finish; the reports."""
        self.reset()
        self.feed(data)
        self.finish()
        return self.reports

    def match_ends(self, data: Chunk) -> list[int]:
        """Distinct report positions, for differential testing."""
        self.scan(data)
        return sorted(set(self._log.ends))


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
