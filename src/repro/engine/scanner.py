"""Streaming table-driven execution of a compiled network.

:class:`StreamScanner` is the fast path promised by the paper's
architecture: one input symbol per "clock" (loop iteration), unbounded
input consumed chunk by chunk.  All per-byte work is integer bitmask
arithmetic over :class:`~repro.engine.tables.TransitionTables`; enable
vectors, counter registers, and bit-vector shift registers carry across
:meth:`feed` calls, so scanning a stream in arbitrary chunkings yields
exactly the same reports as one single-buffer pass.

Semantics contract (asserted by ``tests/engine/``):

* distinct ``(position, report_id)`` reports equal the reference
  :class:`~repro.hardware.simulator.NetworkSimulator`'s
  ``distinct_reports()`` on the concatenated input;
* :attr:`stats` equals the reference run's ``ActivityStats`` field for
  field, so :func:`~repro.hardware.cost.energy_of_run` prices both
  engines identically.

Like the hardware (and the reference simulator), the scanner reports
*every* prefix end; ``$``-anchor gating against end-of-data is the
facade's job (:class:`repro.session.MatchSession` applies it, since only
the session knows when the stream has ended).

This is the *raw* scanner layer: ``feed`` returns the chunk's new
reports as :class:`ReportColumns` -- an ``ends`` column and a column of
indices into the tables' report-id table -- and the scanner keeps its
history as two appended integer columns, decoded to ``(position,
report_id)`` pairs only when :attr:`StreamScanner.reports` is read.
User-facing code should scan through :class:`repro.session.MatchSession`
(via ``RulesetMatcher.session()``), which turns the columns into
offset-sorted :class:`repro.session.Match` lists and applies the facade
semantics.
"""

from __future__ import annotations

from array import array
from collections.abc import Set
from typing import Iterable, Optional, Sequence, Union

from ..hardware.simulator import ActivityStats
from ..mnrl.network import Network
from .tables import KIND_COUNTER, PORT_BODY, PORT_FST, PORT_LST, PORT_PRE, TransitionTables, compile_tables

__all__ = [
    "StreamScanner",
    "ReportColumns",
    "ReportLog",
    "scan_bytes",
    "Chunk",
    "coerce_chunk",
]

#: Anything a scan entry point accepts as one chunk of input.  ``str``
#: is a convenience for latin-1 text; binary-safe callers should pass a
#: bytes-like object.
Chunk = Union[bytes, bytearray, memoryview, str]


def coerce_chunk(chunk: Chunk) -> "bytes | bytearray | memoryview":
    """Normalize one input chunk to a byte-indexable buffer.

    ``bytes`` and ``bytearray`` pass through untouched (no copy);
    ``memoryview``\\ s are recast to unsigned bytes (copying only when
    non-contiguous); ``str`` is encoded as latin-1, with a clear error
    -- instead of a bare :class:`UnicodeEncodeError` -- when the text
    contains code points above U+00FF.  Every scan entry point (scanner
    feed, one-shot facade scans, worker payloads) funnels through here,
    so all input flavours behave identically on every backend.
    """
    if isinstance(chunk, (bytes, bytearray)):
        return chunk
    if isinstance(chunk, memoryview):
        try:
            return chunk.cast("B")
        except TypeError:
            return chunk.tobytes()
    if isinstance(chunk, str):
        try:
            return chunk.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ValueError(
                "str input must be latin-1 encodable (the scan alphabet is "
                f"bytes 0-255), but {chunk[exc.start:exc.end]!r} at index "
                f"{exc.start} is not; encode the text yourself and pass "
                "bytes instead"
            ) from exc
    raise TypeError(
        f"expected a bytes-like or str chunk, got {type(chunk).__name__}"
    )


class ReportColumns(Set):
    """Reports as two parallel integer columns.

    ``ends`` holds 1-based stream positions and ``index`` positions in
    ``ids``, the tables' report-id table
    (:attr:`~repro.engine.tables.TransitionTables.report_ids`).  Rows are
    distinct and ordered by ``(end, index)``.  Every scanner's ``feed``
    returns one (the chunk's new reports) and ``scanner.reports`` views
    one (every report so far).  The columns are ``int64`` NumPy arrays
    from the ``block`` backend and ``array('q')`` from the stdlib ones;
    both expose the buffer protocol and ``tolist()``.

    Hot paths read the columns.  As a :class:`collections.abc.Set` the
    value also iterates, compares and tests membership as decoded
    ``(position, report_id)`` pairs, which is what tests and debugging
    want; nothing is decoded until asked.

    >>> from array import array
    >>> columns = ReportColumns(array("q", [3, 5]), array("q", [1, 0]), ["a", "b"])
    >>> len(columns), list(columns), columns == {(5, "a"), (3, "b")}
    (2, [(3, 'b'), (5, 'a')], True)
    """

    __slots__ = ("ends", "index", "ids", "_decoded")

    def __init__(self, ends, index, ids: Sequence[Optional[str]]):
        self.ends = ends
        self.index = index
        self.ids = ids
        self._decoded: Optional[frozenset] = None

    @classmethod
    def _from_iterable(cls, iterable):
        # set operators (``&``, ``|``, ``-``) build plain frozensets
        return frozenset(iterable)

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self):
        return zip(self.ends.tolist(), map(self.ids.__getitem__, self.index.tolist()))

    def __contains__(self, pair) -> bool:
        if self._decoded is None:
            self._decoded = frozenset(self)
        return pair in self._decoded

    def __repr__(self) -> str:
        return f"ReportColumns({list(self)!r})"


class ReportLog:
    """A stream's reports so far, kept as two appended ``int64`` columns
    (16 bytes a report, no Python object per report)."""

    __slots__ = ("ends", "index")

    def __init__(self) -> None:
        self.ends = array("q")
        self.index = array("q")

    def append(self, columns: ReportColumns) -> None:
        """Append one feed's columns (any contiguous int64 buffers)."""
        if len(columns):
            self.ends.frombytes(memoryview(columns.ends).cast("B"))
            self.index.frombytes(memoryview(columns.index).cast("B"))

    def view(self, ids: Sequence[Optional[str]]) -> ReportColumns:
        """A snapshot of the log: later feeds do not change it."""
        return ReportColumns(self.ends[:], self.index[:], ids)


class StreamScanner:
    """Incremental scanner over precompiled transition tables.

    Args:
        source: a :class:`TransitionTables` (typically compiled once and
            shared across scanners/streams/processes) or a
            :class:`~repro.mnrl.network.Network` to compile on the fly.

    Use :meth:`feed` for each chunk and :meth:`finish` when the stream
    ends; :attr:`reports` then views the distinct
    ``(position, report_id)`` pairs (positions are 1-based byte counts
    from the start of the *stream*, not the chunk).

    >>> from repro import StreamScanner, compile_pattern
    >>> scanner = StreamScanner(compile_pattern("abc").network)
    >>> len(scanner.feed(b"xxab"))  # match incomplete across the boundary
    0
    >>> new = scanner.feed(b"c")
    >>> new.ends.tolist(), new.index.tolist(), scanner.tables.report_ids
    ([5], [0], ['abc'])
    >>> new == {(5, "abc")} == scanner.reports
    True
    """

    def __init__(self, source: TransitionTables | Network):
        if isinstance(source, Network):
            source = compile_tables(source)
        self.tables = source
        self.reset()

    def reset(self) -> None:
        tables = self.tables
        self._cycle = 0
        self._enabled = 0
        self._counts = [0] * tables.n_modules
        self._bv = [0] * tables.n_modules
        self._pre = list(tables.module_initial_pre)
        self._dirty = tables.initial_dirty()
        self._finished = False
        self.stats = ActivityStats()
        self._log = ReportLog()

    @property
    def bytes_fed(self) -> int:
        return self._cycle

    @property
    def reports(self) -> ReportColumns:
        """Every distinct report so far, decoded only when iterated."""
        return self._log.view(self.tables.report_ids)

    # -- streaming ---------------------------------------------------------
    def feed(self, chunk: Chunk) -> ReportColumns:
        """Consume one chunk; return the reports it raised.

        ``chunk`` may be any bytes-like object (``bytes``,
        ``bytearray``, ``memoryview``) or latin-1-encodable ``str``;
        see :func:`coerce_chunk`.  The return value holds the distinct
        reports ending inside this chunk, ordered by ``(end, index)``
        (a position belongs to exactly one chunk, so no report repeats
        across feeds).
        """
        if self._finished:
            raise RuntimeError("feed() after finish(); call reset() to rescan")
        chunk = coerce_chunk(chunk)

        tables = self.tables
        byte_class = tables.byte_class
        match_masks = tables.match_masks
        succ_masks = tables.succ_masks
        ste_hooks = tables.ste_module_hooks
        ste_rindex = tables.ste_report_index
        report_mask = tables.report_ste_mask
        always = tables.always_mask
        start = tables.start_mask
        const_enable = tables.const_enable_mask
        n_modules = tables.n_modules
        kinds = tables.module_kinds
        los = tables.module_lo
        his = tables.module_hi
        live_masks = tables.bv_live_masks
        out_ranges = tables.bv_out_masks
        body_ranges = tables.bv_body_masks
        weights = tables.bv_weights
        mod_reports = tables.module_reports
        mod_rindex = tables.module_report_index
        n_ids = len(tables.report_ids) or 1
        all_input = tables.module_all_input
        out_ste = tables.out_ste_masks
        aux_ste = tables.aux_ste_masks
        out_hooks = tables.out_module_hooks
        aux_hooks = tables.aux_module_hooks

        enabled = self._enabled
        cycle = self._cycle
        counts = self._counts
        bv = self._bv
        pre = self._pre
        dirty = self._dirty
        # one int per report, position * n_ids + report index: sorting
        # them orders the chunk's reports by (end, index)
        keys: list[int] = []

        ste_activations = 0
        counter_ops = 0
        bv_ops = 0
        bv_weighted = 0.0
        n_events = 0

        for byte in chunk:
            base = enabled | always
            if cycle == 0:
                base |= start
            active = base & match_masks[byte_class[byte]]
            position = cycle + 1
            next_enabled = const_enable
            sig: Optional[dict[int, int]] = None

            if active:
                ste_activations += active.bit_count()
                rep = active & report_mask
                if rep:
                    n_events += rep.bit_count()
                    row = position * n_ids
                    while rep:
                        low = rep & -rep
                        rep ^= low
                        keys.append(row + ste_rindex[low.bit_length() - 1])
                remaining = active
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    index = low.bit_length() - 1
                    next_enabled |= succ_masks[index]
                    hooks = ste_hooks[index]
                    if hooks is not None:
                        if sig is None:
                            sig = {}
                        for target, port_bit in hooks:
                            if target in sig:
                                sig[target] |= port_bit
                            else:
                                sig[target] = port_bit

            if sig is not None or dirty:
                if sig is None:
                    sig = {}
                sig_get = sig.get
                for i in range(n_modules):
                    signals = sig_get(i, 0)
                    if not signals and i not in dirty:
                        continue
                    if kinds[i] == KIND_COUNTER:
                        if signals & (PORT_FST | PORT_LST):
                            counter_ops += 1
                        if signals & PORT_FST:
                            counts[i] = 1 if pre[i] else counts[i] + 1
                        if signals & PORT_LST:
                            count = counts[i]
                            fired_out = los[i] <= count <= his[i]
                            fired_aux = count < his[i]
                        else:
                            fired_out = fired_aux = False
                        dirty.discard(i)
                    else:
                        value = bv[i]
                        if signals & PORT_BODY:
                            bv_ops += 1
                            bv_weighted += weights[i]
                            value = (value << 1) & live_masks[i]
                            if pre[i]:
                                value |= 1
                        else:
                            if value:
                                bv_ops += 1
                                bv_weighted += weights[i]
                            value = 0
                        bv[i] = value
                        fired_out = bool(value & out_ranges[i])
                        fired_aux = bool(value & body_ranges[i])
                        if value:
                            dirty.add(i)
                        else:
                            dirty.discard(i)
                    pre[i] = all_input[i]
                    if fired_out:
                        if mod_reports[i]:
                            n_events += 1
                            keys.append(position * n_ids + mod_rindex[i])
                        next_enabled |= out_ste[i]
                        hooks = out_hooks[i]
                        if hooks is not None:
                            for target, port_bit in hooks:
                                if target in sig:
                                    sig[target] |= port_bit
                                else:
                                    sig[target] = port_bit
                    if fired_aux:
                        next_enabled |= aux_ste[i]
                        hooks = aux_hooks[i]
                        if hooks is not None:
                            for target, port_bit in hooks:
                                if target in sig:
                                    sig[target] |= port_bit
                                else:
                                    sig[target] = port_bit
                # Latch `pre` for the next cycle.  Any module may have
                # driven another's `pre` regardless of topological rank
                # (it is excluded from the ordering), so this runs after
                # the in-order pass, exactly like the reference.
                for i, signals in sig.items():
                    if signals & PORT_PRE:
                        pre[i] = True
                        if not all_input[i]:
                            dirty.add(i)
                        if kinds[i] != KIND_COUNTER:
                            next_enabled |= aux_ste[i]

            enabled = next_enabled
            cycle = position

        self._enabled = enabled
        self._cycle = cycle
        stats = self.stats
        stats.cycles += len(chunk)
        stats.ste_activations += ste_activations
        stats.counter_ops += counter_ops
        stats.bit_vector_ops += bv_ops
        stats.bit_vector_weighted_ops += bv_weighted
        stats.reports += n_events
        new = columns_of_keys(keys, tables.report_ids)
        self._log.append(new)
        return new

    def finish(self) -> None:
        """Mark end-of-stream.

        After ``finish()`` further :meth:`feed` calls raise (use
        :meth:`reset` to scan a new stream with the same tables).
        """
        self._finished = True

    # -- one-shot conveniences (mirror the reference simulator) ------------
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


def columns_of_keys(keys: list[int], ids: Sequence[Optional[str]]) -> ReportColumns:
    """:class:`ReportColumns` of one feed's ``position * len(ids) +
    index`` keys (deduplicated here: two STEs may raise one report id
    on the same byte)."""
    width = len(ids) or 1
    keys = sorted(set(keys))
    return ReportColumns(
        array("q", [key // width for key in keys]),
        array("q", [key % width for key in keys]),
        ids,
    )


def scan_bytes(
    source: TransitionTables | Network, chunks: Iterable[Chunk] | Chunk
) -> StreamScanner:
    """One-shot convenience: scan ``chunks`` (or a single buffer) and
    return the finished scanner (reports + stats)."""
    scanner = StreamScanner(source)
    if isinstance(chunks, (bytes, str, bytearray, memoryview)):
        chunks = (chunks,)
    for chunk in chunks:
        scanner.feed(chunk)
    scanner.finish()
    return scanner
