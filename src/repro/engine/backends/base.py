"""The execution-backend protocol.

A *backend* is a named strategy for executing one compiled
:class:`~repro.engine.tables.TransitionTables`: it advertises its
capabilities (availability, stats guarantees, streaming support) and
manufactures *scanners*.  A scanner is anything with the
:class:`~repro.engine.scanner.StreamScanner` streaming surface::

    scanner.feed(chunk) -> ReportColumns   # the chunk's reports
    scanner.finish()    -> None            # end of stream
    scanner.reset()
    scanner.reports     # every report so far (a ReportColumns view)
    scanner.stats       # hardware ActivityStats
    scanner.bytes_fed   # stream offset
    scanner.tables      # the TransitionTables it runs

Reports travel as columns, never as one Python object per report:
:class:`~repro.engine.scanner.ReportColumns` holds an ``ends`` column
(1-based stream positions) and an ``index`` column into the tables'
report-id table (``tables.report_ids``), distinct and ordered by
``(end, index)``.  A scanner keeps its history as appended columns
(:class:`~repro.engine.scanner.ReportLog`); ``reports`` decodes them to
``(position, report_id)`` pairs only when iterated or compared.

All backends share one semantics contract: identical distinct report
sets to the reference :class:`~repro.hardware.simulator.NetworkSimulator`
on every input and chunking.  Backends with :attr:`Backend.stats_exact`
additionally guarantee :class:`~repro.hardware.simulator.ActivityStats`
equivalence (``ActivityStats.equivalent``), so energy pricing is
backend-independent.

Because every backend's ``feed`` reports *incrementally* (the reports
ending inside the chunk), the session layer (:mod:`repro.session`)
works over any registered backend unchanged: a
:class:`~repro.session.MatchSession` wraps one scanner per ruleset
shard, gates and orders the columns of all of them by a per-index rule
rank (:class:`~repro.session.ReportLayout`) and builds each
offset-sorted :class:`~repro.session.Match` once -- new backends get
incremental emission for free by meeting this contract.

Concrete backends register with
:func:`~repro.engine.backends.registry.register_backend`; consumers
resolve by name (or ``"auto"``) through
:func:`~repro.engine.backends.registry.resolve_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from ..tables import TransitionTables

__all__ = ["Backend", "BackendInfo", "BackendUnavailable"]


class BackendUnavailable(ValueError):
    """Raised when a named backend exists but cannot run here (for
    example ``"block"`` without NumPy).  A :class:`ValueError` so that
    facade callers can treat bad and unusable engine names uniformly."""


@dataclass(frozen=True)
class BackendInfo:
    """Introspection snapshot of one registered backend."""

    name: str
    description: str
    #: importable/usable in this process right now?
    available: bool
    #: why not, when ``available`` is False
    unavailable_reason: Optional[str]
    #: guarantees ActivityStats equivalence with the reference
    stats_exact: bool
    #: consumes chunks incrementally (no whole-stream buffering)
    streaming: bool


class Backend(ABC):
    """One execution strategy over compiled transition tables."""

    #: registry name (``matcher.scan(engine=<name>)``)
    name: str = ""
    #: one-line capability summary for docs/CLI
    description: str = ""
    #: ActivityStats identical to the reference simulator?
    stats_exact: bool = True
    #: feeds chunks incrementally?
    streaming: bool = True

    def availability(self) -> tuple[bool, Optional[str]]:
        """``(available, reason-if-not)`` in this process."""
        return True, None

    @property
    def available(self) -> bool:
        return self.availability()[0]

    def applicable(self, tables: TransitionTables) -> bool:
        """Can :meth:`make_scanner` serve these particular tables?"""
        return True

    def auto_priority(self, tables: TransitionTables) -> Optional[int]:
        """Rank for ``engine="auto"`` selection over ``tables``.

        Higher wins; ``None`` means "never pick me automatically"
        (explicit selection still works).  Only consulted when the
        backend is available and applicable.
        """
        return None

    def prepare(self, tables: TransitionTables) -> None:
        """Derive, once, whatever :meth:`make_scanner` would otherwise
        derive from ``tables`` on first use, and keep it in
        ``tables.prepared`` -- the compile path calls this before it
        writes a cache artifact, so a warm start loads the result.
        Default: nothing to prepare."""

    @abstractmethod
    def make_scanner(self, tables: TransitionTables):
        """A fresh scanner over ``tables`` (see module docstring)."""

    def info(self) -> BackendInfo:
        available, reason = self.availability()
        return BackendInfo(
            name=self.name,
            description=self.description,
            available=available,
            unavailable_reason=reason,
            stats_exact=self.stats_exact,
            streaming=self.streaming,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
