"""Engine names, and the one function that resolves them to scanners.

Two scanners execute compiled
:class:`~repro.engine.tables.TransitionTables`, and one oracle checks
them:

===============  ========================================================
``"stream"``     :class:`~repro.engine.scanner.StreamScanner`, the scalar
                 bitmask interpreter; stdlib only, always available
``"block"``      :class:`~repro.engine.block.BlockScanner`, NumPy block
                 sweeps (STE, counter and bit-vector activity in-lane);
                 optional dependency
``"reference"``  :class:`ReferenceScanner`, the node-by-node
                 :class:`~repro.hardware.simulator.NetworkSimulator`
                 behind the scanner surface: the executable spec the
                 scanners are tested against
===============  ========================================================

``engine="auto"`` resolves to ``"block"`` when NumPy imports **and** the
block scanner's static sweep analysis accepts the tables
(:meth:`repro.engine.block.BlockScanner.can_sweep` -- module-free or
module-bearing alike), and to ``"stream"`` otherwise; ``"reference"`` is
never picked automatically.

The oracle interprets the rules' emitted network, which the tables do
not carry: a matcher builds it from its own rules
(``RulesetMatcher.session(engine="reference")``, which recompiles them
on a cache hit), so ``resolve_backend("reference").make_scanner``
refuses bare tables.

Every scanner has one streaming surface::

    scanner.feed(chunk) -> ReportColumns   # the chunk's reports
    scanner.finish()    -> None            # end of stream
    scanner.reset()
    scanner.reports     # every report so far (a ReportColumns view)
    scanner.stats       # hardware ActivityStats
    scanner.bytes_fed   # stream offset
    scanner.tables      # the TransitionTables it reports against

and one contract: the reference's distinct report set and
:class:`~repro.hardware.simulator.ActivityStats` (``equivalent``) on
every input and chunking.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..hardware.simulator import NetworkSimulator
from ..mnrl.network import Network
from .block import BlockScanner, numpy_or_none, numpy_unavailable_reason
from .scanner import (
    Chunk,
    ReportColumns,
    ReportLog,
    StreamScanner,
    coerce_chunk,
    columns_of_keys,
)
from .tables import TransitionTables

__all__ = [
    "AUTO_ENGINE",
    "REFERENCE_ENGINE",
    "BackendUnavailable",
    "Engine",
    "ReferenceScanner",
    "available_engines",
    "engine_choices",
    "resolve_backend",
    "unknown_engine_error",
]

#: The pseudo-name that defers the choice until the tables are known.
AUTO_ENGINE = "auto"
#: The oracle's name: a matcher builds it from its rules' network.
REFERENCE_ENGINE = "reference"


class BackendUnavailable(ValueError):
    """Raised when a named engine exists but cannot run here (``"block"``
    without NumPy).  A :class:`ValueError` so that callers can treat bad
    and unusable engine names uniformly."""


class Engine(NamedTuple):
    """A resolved engine: its name and its scanner factory."""

    name: str
    make_scanner: Callable[[TransitionTables], object]


class ReferenceScanner:
    """The scanner surface over the reference simulator.

    The simulator steps one byte at a time over Python node objects and
    carries all state on itself, so the adapter streams chunk by chunk:
    ``feed`` extends the run and turns its new report events into
    columns against ``tables.report_ids``.  ``network`` must be the one
    the tables were lowered from (or a fresh compile of the same rules
    and options, which lowers to the same tables).
    """

    def __init__(self, tables: TransitionTables, network: Network):
        self.tables = tables
        self._sim = NetworkSimulator(network)
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
        sim = self._sim
        sim.run(coerce_chunk(chunk))
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


def _network_needed(tables: TransitionTables):
    raise BackendUnavailable(
        "engine 'reference' interprets the rules' network, which tables do "
        "not carry: scan through a RulesetMatcher or PatternMatcher, or "
        "build ReferenceScanner(tables, network)"
    )


_FACTORIES = {
    "stream": StreamScanner,
    "block": BlockScanner,
    REFERENCE_ENGINE: _network_needed,
}


def engine_choices() -> list[str]:
    """Every accepted engine spelling: ``auto``, then the engine names
    (what the CLI ``--engine`` flag and the facade accept)."""
    return [AUTO_ENGINE, *_FACTORIES]


def available_engines() -> list[str]:
    """The engine names that run in this process (``block`` needs NumPy).

    >>> from repro import available_engines
    >>> {"stream", "reference"} <= set(available_engines())
    True
    """
    return [name for name in _FACTORIES if name != "block" or numpy_or_none() is not None]


def unknown_engine_error(name: object) -> ValueError:
    """The single unknown-engine error every entry point raises."""
    return ValueError(
        f"unknown engine {name!r}; available engines: " + ", ".join(engine_choices())
    )


def resolve_backend(name: str, tables: Optional[TransitionTables] = None) -> Engine:
    """Resolve an engine name (or ``"auto"``) for ``tables``.

    Unknown names raise the shared unknown-engine :class:`ValueError`;
    ``"block"`` without NumPy raises :class:`BackendUnavailable` with
    the import error as the reason.

    >>> from repro import resolve_backend
    >>> resolve_backend("stream").name
    'stream'
    """
    if name == AUTO_ENGINE:
        sweeps = (
            tables is not None
            and numpy_or_none() is not None
            and BlockScanner.can_sweep(tables)  # kept on the tables
        )
        name = "block" if sweeps else "stream"
    factory = _FACTORIES.get(name)
    if factory is None:
        raise unknown_engine_error(name)
    if name == "block" and numpy_or_none() is None:
        raise BackendUnavailable(
            f"engine 'block' is unavailable: {numpy_unavailable_reason()}"
        )
    return Engine(name, factory)
