"""NumPy bit-parallel block scanner (the ``"block"`` backend).

:class:`~repro.engine.scanner.StreamScanner` interprets the transition
tables one byte at a time; every byte pays Python dispatch for the
enable/match/successor recurrence even though most of the work is
embarrassingly data-parallel across input positions.  This module
trades the per-byte loop for *per-block* vector sweeps, the same move
GPU IDS engines make when they batch the byte->class indirection
(Bellekens et al.): translate the input to alphabet classes in one
pass, then evaluate STE occupancy over a whole block with NumPy
boolean lanes.

How a block is scanned
----------------------
STE ``v``'s occupancy over a block is a boolean lane ``occ[v]`` (one
element per input position) satisfying::

    occ[v][t] = memb[v][t] and (always[v]
                                or occ[u][t-1] for some predecessor u
                                or carried enable at t == 0)

where ``memb[v]`` says which positions hold a byte of ``v``'s symbol
set.  A ``feed`` is translated to alphabet classes once
(``bytes.translate``); a membership lane is then one compare
(``cls == c``) when the symbol set is a single class -- most are --
and a ``take`` through the set's class row otherwise, built once per
block and distinct symbol set (run chains share one row).  Evaluating
STEs in topological order turns the whole recurrence into one shifted
AND/OR per edge, and an STE whose occupancy lane is all-zero prunes
its entire downstream cone for the block -- literal chains die after a
couple of levels, which is where the asymptotic win over the scalar
interpreter comes from.  Self-loop STEs (``a+``/``a*`` tails) stay
vectorizable through the run-length closed form: the self-loop holds
at ``t`` iff some enable arrived inside the current unbroken symbol
run, i.e. ``last_enable_index >= run_start_index``, both one
``np.maximum.accumulate`` away.

Stats and reports are exact, not approximate: activations are
``count_nonzero`` per occupancy lane, report events are the nonzero
positions of reporting STEs' lanes, so the backend meets the same
``ActivityStats``-exact contract as the scalar engine.  A reporting
lane's positions become ``position * R + report index`` keys in one
array op (``R`` entries in the tables' report-id table); a feed sorts
and deduplicates its keys once and splits them into the
``(end, index)`` :class:`~repro.engine.scanner.ReportColumns` it
returns -- no Python object per report.  Deduplicating within a feed is
exact: a position is reported only while its byte is consumed.

Counter / bit-vector modules
----------------------------
Module activity runs *inside* the same sweep:
:mod:`repro.engine.block_modules` collapses the emitted one-STE
feedback loops (``en_fst`` re-arming a counter body, ``en_body``
holding a bit-vector body STE) into closed-form nodes whose cost
follows the live tokens, not the bound: each token's interval is
painted into the output lanes, free-standing counter registers are
prefix sums over ``fst`` lanes, and the carried scalar state
(registers, latched ``pre``, dirty set) is written back at every
block boundary.  Every block commits, and reports/stats stay exactly
equal to the interpreter's.

One static verdict
------------------
Like the paper's compiler choosing counter / bit vector / unfolding
per occurrence, the strategy is decided once per tables, at program
build, and never revisited at run time -- the program (verdict
included) is kept in ``tables.prepared``, so it is built on the compile
path, stored in the cache artifact and loaded by a warm start:
:func:`block_modules.analyze` orders STEs and modules into one acyclic
step list (an STE-only table is simply the module-free case of it), or
rejects the tables -- nested counting, multi-STE counter bodies, STE
cycles longer than a self-loop.  Accepted tables run every block
through :meth:`BlockScanner._sweep`; rejected tables are fed whole to
the embedded :class:`StreamScanner`.  :meth:`BlockScanner.can_sweep`
exposes the verdict (it is the whole ``engine="auto"`` rule for this
backend) and :attr:`BlockScanner.sweep_stats` the committed-block
count.

NumPy is an optional dependency: importing this module never raises,
and :func:`numpy_or_none` reports what the backend registry should say
when the import failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..mnrl.network import Network
from . import block_modules
from .scanner import Chunk, ReportColumns, StreamScanner, coerce_chunk
from .tables import KIND_BIT_VECTOR, SRC_OUT, TransitionTables, compile_tables

try:  # NumPy is optional: the registry degrades gracefully without it
    import numpy as _np

    _NUMPY_ERROR: Optional[str] = None
except Exception as exc:  # pragma: no cover - exercised via monkeypatch
    _np = None
    _NUMPY_ERROR = f"{type(exc).__name__}: {exc}"

__all__ = [
    "BlockScanner",
    "BlockSweepStats",
    "numpy_or_none",
    "numpy_unavailable_reason",
    "DEFAULT_BLOCK_SIZE",
]

#: Input positions evaluated per vector sweep.  Measured sweet spot on
#: Snort-scale STE-only tables: large enough to amortize per-STE NumPy
#: call overhead, small enough that occupancy lanes stay cache-resident.
DEFAULT_BLOCK_SIZE = 16384


#: glibc ``mallopt`` parameter numbers (``malloc.h``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: the ceilings of glibc's own dynamic thresholds on 64-bit hosts: where
#: it puts them once the process has freed a 32 MiB mapping
_MMAP_THRESHOLD = 32 * 1024 * 1024
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_heap_kept = False


def _keep_freed_heap() -> None:
    """Keep the heap a sweep frees at each block boundary for the next block.

    A sweep allocates its lanes (``block_size`` bytes each, hundreds of
    them per block on a large ruleset) and frees them all when the block
    ends.  Until the process happens to free a large mapping, glibc
    returns any freed heap top over 128 KiB to the OS, and every block
    faults the same megabytes back in: ~130 000 minor page faults per
    768 KiB pass of the 2 000-rule corpus, against ~0 with the thresholds
    at glibc's own dynamic ceilings, which is what this sets.  Once per
    process; a no-op where the C library has no ``mallopt``.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when it cannot be imported."""
    return _np


def numpy_unavailable_reason() -> Optional[str]:
    """Why NumPy is unavailable (``None`` when it imported fine)."""
    if _np is None:
        return _NUMPY_ERROR or "import numpy failed"
    return None


class _BlockProgram:
    """Per-tables sweep verdict and derived arrays, kept in
    ``tables.prepared`` and shared by every :class:`BlockScanner` over
    the same tables via :func:`_program_for`.

    ``sweep_ok`` is the one verdict: :func:`block_modules.analyze`
    ordered STEs and modules into ``steps``, or rejected the tables
    (then nothing else is built -- the interpreter runs them).
    """

    __slots__ = (
        "sweep_ok",
        "preds",
        "succ_lists",
        "has_self",
        "always_flag",
        "start_flag",
        "report_flag",
        "always_eff_flag",
        "always_eff_list",
        "start_list",
        "row_of",
        "uniq_rows",
        "row_class",
        "mod_plans",
        "steps",
        "mod_preds",
    )

    def __init__(self, tables: TransitionTables):
        np = _np
        assert np is not None
        n = tables.n_stes
        succ = tables.succ_masks

        preds: list[list[int]] = [[] for _ in range(n)]
        succ_lists: list[list[int]] = [[] for _ in range(n)]
        has_self = [False] * n
        for i in range(n):
            for j in block_modules._bits(succ[i]):
                if j == i:
                    has_self[i] = True
                else:
                    preds[j].append(i)
                    succ_lists[i].append(j)
        self.preds = preds
        self.succ_lists = succ_lists
        self.has_self = has_self

        self.always_flag = _mask_flags(tables.always_mask, n)
        self.start_flag = _mask_flags(tables.start_mask, n)
        self.report_flag = _mask_flags(tables.report_ste_mask, n)
        self.start_list = [i for i in range(n) if self.start_flag[i]]

        # STEs the interpreter enables every cycle regardless of
        # drives: ALL_INPUT starts plus const_enable targets (ALL_INPUT
        # bit vectors re-arming their body).  For lane purposes both
        # mean "occupancy is plain membership".
        const_flag = _mask_flags(tables.const_enable_mask, n)
        self.always_eff_flag = [
            a or c for a, c in zip(self.always_flag, const_flag)
        ]
        self.always_eff_list = [i for i in range(n) if self.always_eff_flag[i]]

        # the static verdict: collapse emitted module feedback loops and
        # demand one acyclic STE+module order (self-loops excluded, they
        # have a closed form); see block_modules
        mod_program = block_modules.analyze(
            tables,
            preds,
            succ_lists,
            has_self,
            self.always_eff_flag,
            self.start_flag,
        )
        self.sweep_ok = mod_program is not None
        if mod_program is None:
            return
        self.mod_plans = mod_program.plans
        self.steps = mod_program.steps
        self.mod_preds = mod_program.mod_preds

        # one bool row of n_classes per distinct symbol set; STEs with
        # identical symbol sets (all copies of an unfolded run) share a
        # row, so the per-block membership lane is built once per set
        match_rows = np.zeros((max(n, 1), tables.n_classes or 1), dtype=bool)
        if n and tables.match_masks:
            # class masks are dense (a negated class sets most bits):
            # unpack them all at once instead of one set bit at a time
            width = (n + 7) // 8
            raw = b"".join(mask.to_bytes(width, "little") for mask in tables.match_masks)
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8).reshape(-1, width),
                axis=1,
                bitorder="little",
            )
            match_rows[:n, : len(tables.match_masks)] = bits[:, :n].T
        row_index: dict[bytes, int] = {}
        self.row_of = [0] * n
        for i in range(n):
            key = match_rows[i].tobytes()
            self.row_of[i] = row_index.setdefault(key, len(row_index))
        self.uniq_rows = np.zeros((max(len(row_index), 1), tables.n_classes or 1), dtype=bool)
        for i in range(n):
            self.uniq_rows[self.row_of[i]] = match_rows[i]
        # most rows hold exactly one class: their lane is one compare
        self.row_class = [
            int(row.argmax()) if row.sum() == 1 else -1 for row in self.uniq_rows
        ]

    def __getstate__(self):
        # stored programs are read by processes without NumPy too:
        # builtins and repro classes only, ``uniq_rows`` as shape + bytes
        state = {k: getattr(self, k) for k in self.__slots__ if hasattr(self, k)}
        rows = state.get("uniq_rows")
        if rows is not None and not isinstance(rows, tuple):
            state["uniq_rows"] = (rows.shape, rows.tobytes())
        return None, state


def _sorted_distinct(keys):
    """``keys`` sorted, repeats dropped (two STEs may raise one report id
    on the same byte).  What ``np.unique`` returns, without the
    ``numpy.ma`` import its first call pays (~35 ms, in a fresh worker's
    first feed)."""
    keys = _np.sort(keys)
    fresh = _np.ones(len(keys), dtype=bool)
    _np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _mask_flags(mask: int, n: int) -> list[bool]:
    return [bool((mask >> i) & 1) for i in range(n)]


def _program_for(tables: TransitionTables) -> _BlockProgram:
    """The program kept on ``tables``, built on first ask; a stored one
    (cache artifact, pool worker) gets its ``uniq_rows`` array back."""
    program = tables.prepared.get("block")
    if program is None:
        program = tables.prepared["block"] = _BlockProgram(tables)
    elif program.sweep_ok and isinstance(program.uniq_rows, tuple):
        shape, raw = program.uniq_rows
        program.uniq_rows = _np.frombuffer(raw, dtype=bool).reshape(shape)
    return program


class _BlockLanes:
    """One block's lanes: what :meth:`BlockScanner._sweep` publishes and
    :func:`block_modules.eval_module` reads.  Membership lanes and their
    break positions are built on first use, once per class row."""

    __slots__ = (
        "blen", "occ", "mod_out", "mod_aux", "acc",
        "_program", "_cls", "_cls_wide", "_memb", "_breaks",
    )

    def __init__(self, program: _BlockProgram, cls):
        self.blen = len(cls)
        self.occ: list = [None] * len(program.row_of)
        self.mod_out: list = [None] * len(program.mod_plans)
        self.mod_aux: list = [None] * len(program.mod_plans)
        #: stats deltas: counter_ops, bit_vector_ops, bit_vector_weighted_ops
        self.acc: list = [0, 0, 0.0]
        self._program = program
        self._cls = cls
        self._cls_wide = cls.astype(_np.intp)  # `take` wants intp indices
        self._memb: dict = {}
        self._breaks: dict = {}

    def memb_for(self, v: int):
        """Where the block's bytes are in STE ``v``'s symbol set."""
        row = self._program.row_of[v]
        memb = self._memb.get(row)
        if memb is None:
            c = self._program.row_class[row]
            if c >= 0:
                memb = self._cls == c
            else:
                memb = self._program.uniq_rows[row].take(self._cls_wide)
            self._memb[row] = memb
        return memb

    def breaks_for(self, v: int):
        """Sorted positions outside ``v``'s symbol set, then ``blen``."""
        row = self._program.row_of[v]
        breaks = self._breaks.get(row)
        if breaks is None:
            breaks = _np.append(_np.flatnonzero(~self.memb_for(v)), self.blen)
            self._breaks[row] = breaks
        return breaks


@dataclass(frozen=True)
class BlockSweepStats:
    """Sweep bookkeeping for one :class:`BlockScanner` stream."""

    #: blocks run (and committed) by the vector sweep
    committed_blocks: int
    #: these tables run in the sweep -- STE and module activity alike;
    #: False means the analysis rejected them and the embedded
    #: interpreter scans every byte
    modules_vectorized: bool
    # Always 0: no rescan path exists.  Kept readable only for the
    # benchmark's ``engine.block.rescans/.reenables`` per-layer names;
    # they go away with the next ``benchmark`` PR.
    rescans: int = 0
    reenables: int = 0


class BlockScanner:
    """Drop-in :class:`StreamScanner` replacement with block sweeps.

    Same construction, streaming surface (``feed``/``finish``/
    ``reset``), report columns, and ``ActivityStats`` as the scalar
    scanner; only the execution strategy differs.

    Raises :class:`RuntimeError` when NumPy is unavailable -- resolve
    through :mod:`repro.engine.backends` to degrade gracefully instead.
    """

    def __init__(
        self,
        source: TransitionTables | Network,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        if _np is None:
            raise RuntimeError(
                f"BlockScanner requires numpy ({numpy_unavailable_reason()})"
            )
        if isinstance(source, Network):
            source = compile_tables(source)
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self.tables = source
        self.block_size = block_size
        self._scalar = StreamScanner(source)
        self._program = _program_for(source)
        _keep_freed_heap()
        #: blocks swept so far (monotonic until reset)
        self._committed = 0

    @staticmethod
    def can_sweep(tables: TransitionTables) -> bool:
        """Did the static analysis accept ``tables`` for the vector
        sweep?  Decided once per tables (and kept on them); when
        False a :class:`BlockScanner` over them is the scalar
        interpreter at scalar speed.  Requires NumPy."""
        return _program_for(tables).sweep_ok

    # the embedded scalar scanner owns all mutable state: the sweep
    # writes its carried state there at every block boundary
    @property
    def reports(self) -> ReportColumns:
        """Every distinct report so far, decoded only when iterated."""
        return self._scalar.reports

    @property
    def stats(self):
        return self._scalar.stats

    @property
    def bytes_fed(self) -> int:
        return self._scalar.bytes_fed

    @property
    def sweep_stats(self) -> BlockSweepStats:
        """Committed-block count and sweep verdict for this stream."""
        return BlockSweepStats(
            committed_blocks=self._committed,
            modules_vectorized=self._program.sweep_ok,
        )

    def reset(self) -> None:
        self._scalar.reset()
        self._committed = 0

    def finish(self) -> None:
        """Mark end-of-stream."""
        self._scalar.finish()

    def feed(self, chunk: Chunk) -> ReportColumns:
        """Consume one chunk; return the reports it raised."""
        if not self._program.sweep_ok:
            # tables the analysis rejected run whole on the interpreter
            return self._scalar.feed(chunk)
        if self._scalar._finished:
            raise RuntimeError("feed() after finish(); call reset() to rescan")
        np = _np
        # bytes -> alphabet classes, once per feed
        classes = bytes(coerce_chunk(chunk)).translate(self.tables.byte_class)
        cls = np.frombuffer(classes, dtype=np.uint8)
        keys: list = []
        block = self.block_size
        for offset in range(0, len(cls), block):
            self._sweep(cls[offset : offset + block], keys)
            self._committed += 1
        ids = self.tables.report_ids
        if not keys:
            ends = index = np.empty(0, dtype=np.int64)
        else:
            # one lane's keys are already ascending and distinct
            merged = keys[0] if len(keys) == 1 else _sorted_distinct(np.concatenate(keys))
            ends, index = np.divmod(merged, len(ids))
        new = ReportColumns(ends, index, ids)
        self._scalar._log.append(new)
        return new

    # -- one-shot conveniences (mirror StreamScanner) ----------------------
    def scan(self, data: Chunk) -> ReportColumns:
        """Reset, consume ``data`` as one chunk, finish; the reports."""
        self.reset()
        self.feed(data)
        self.finish()
        return self.reports

    def match_ends(self, data: Chunk) -> list[int]:
        """Distinct report positions, for differential testing."""
        self.scan(data)
        return sorted(set(self._scalar._log.ends))

    # -- the vector sweep --------------------------------------------------
    def _sweep(self, cls, keys: list) -> None:
        """Sweep one block (as alphabet classes), STE and counter/bit-vector
        activity alike evaluated in-lane.  Always commits: stats and
        module registers land exactly where the interpreter would have
        put them, and each reporting lane appends its ``position * R +
        report index`` keys to ``keys``."""
        np = _np
        program = self._program
        tables = self.tables
        scalar = self._scalar
        enabled = scalar._enabled
        cycle = scalar._cycle
        blen = len(cls)

        preds = program.preds
        succ_lists = program.succ_lists
        succ_masks = tables.succ_masks
        has_self = program.has_self
        always_flag = program.always_flag
        always_eff = program.always_eff_flag
        start_flag = program.start_flag
        report_flag = program.report_flag
        ste_rindex = tables.ste_report_index
        width = len(tables.report_ids)
        plans = program.mod_plans
        mod_preds = program.mod_preds
        out_ste_masks = tables.out_ste_masks
        aux_ste_masks = tables.aux_ste_masks
        at_start = cycle == 0
        # key of a lane's position p: (cycle + 1 + p) * width + index
        row = (cycle + 1) * width

        n = tables.n_stes
        lanes = _BlockLanes(program, cls)
        occ, mod_out, mod_aux = lanes.occ, lanes.mod_out, lanes.mod_aux
        memb_for = lanes.memb_for
        needed = bytearray(n)
        for v in program.always_eff_list:
            needed[v] = 1
        if at_start:
            for v in program.start_list:
                needed[v] = 1
        mask = enabled
        while mask:
            low = mask & -mask
            mask ^= low
            needed[low.bit_length() - 1] = 1

        idx = None
        activations = 0
        events = 0
        # the interpreter seeds every cycle's next_enabled with the
        # const mask (ALL_INPUT bit vectors re-arming their body STE)
        last_mask = tables.const_enable_mask
        for step_kind, index in program.steps:
            if step_kind == 0:
                v = index
                if not needed[v]:
                    continue
                memb = memb_for(v)
                entry = bool((enabled >> v) & 1) or (at_start and start_flag[v])
                if always_eff[v]:
                    # enabled on every symbol: occupancy is membership --
                    # except a const-enabled (not always) STE at stream
                    # start, which the cycle-0 base does not include
                    lane = memb
                    if at_start and not always_flag[v] and not entry and memb[0]:
                        lane = memb.copy()
                        lane[0] = False
                else:
                    live = [occ[u] for u in preds[v] if occ[u] is not None]
                    for j, src in mod_preds[v]:
                        lane_j = mod_out[j] if src == SRC_OUT else mod_aux[j]
                        if lane_j is not None:
                            live.append(lane_j)
                    if has_self[v]:
                        if idx is None:
                            idx = np.arange(blen)
                        drive = np.zeros(blen, dtype=bool)
                        drive[0] = entry
                        for lane_u in live:
                            np.logical_or(drive[1:], lane_u[:-1], out=drive[1:])
                        run_start = np.maximum.accumulate(np.where(memb, 0, idx + 1))
                        last_drive = np.maximum.accumulate(np.where(drive, idx, -1))
                        lane = memb & (last_drive >= run_start)
                    elif len(live) == 1:
                        lane = np.empty(blen, dtype=bool)
                        np.logical_and(live[0][:-1], memb[1:], out=lane[1:])
                        lane[0] = entry and bool(memb[0])
                    else:
                        lane = np.zeros(blen, dtype=bool)
                        lane[0] = entry
                        for lane_u in live:
                            np.logical_or(lane[1:], lane_u[:-1], out=lane[1:])
                        np.logical_and(lane, memb, out=lane)
            else:
                plan = plans[index]
                s_occ, out_lane, aux_lane, pre_last = block_modules.eval_module(
                    np, plan, lanes, scalar
                )
                if out_lane is not None:
                    mod_out[index] = out_lane
                    if plan.reports:
                        hits = np.flatnonzero(out_lane)
                        events += len(hits)
                        if len(hits):
                            keys.append(hits * width + (row + plan.report_index))
                    if out_lane[-1]:
                        last_mask |= out_ste_masks[index]
                    for w in plan.out_targets:
                        needed[w] = 1
                if aux_lane is not None:
                    mod_aux[index] = aux_lane
                    if aux_lane[-1]:
                        last_mask |= aux_ste_masks[index]
                    for w in plan.aux_targets:
                        needed[w] = 1
                # the interpreter's pre-latch loop enables a bit
                # vector's body STE for the cycle after any pre pulse
                if pre_last and plan.kind == KIND_BIT_VECTOR:
                    last_mask |= aux_ste_masks[index]
                if s_occ is None:
                    continue
                # the absorbed body STE publishes like any other STE
                v, lane = plan.absorbed, s_occ
            count = int(np.count_nonzero(lane))
            if count == 0:
                continue
            occ[v] = lane
            activations += count
            if report_flag[v]:
                events += count
                keys.append(np.flatnonzero(lane) * width + (row + ste_rindex[v]))
            if lane[-1]:
                last_mask |= succ_masks[v]
            for w in succ_lists[v]:
                needed[w] = 1

        scalar._enabled = last_mask
        scalar._cycle = cycle + blen
        stats = scalar.stats
        stats.cycles += blen
        stats.ste_activations += activations
        stats.counter_ops += lanes.acc[0]
        stats.bit_vector_ops += lanes.acc[1]
        stats.bit_vector_weighted_ops += lanes.acc[2]
        stats.reports += events
