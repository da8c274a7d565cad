"""Lowering a compiled :class:`~repro.mnrl.network.Network` to tables.

:class:`NetworkSimulator` is the *reference* implementation: per byte it
re-walks Python node objects, set-unions id strings, and consults each
``CharClass`` through a method call.  That is faithful to the two-phase
hardware loop of Section 4.1 but far too slow to serve streams.  This
module precompiles the network once into :class:`TransitionTables` --
dense integer tables mirroring what the hardware itself precomputes
when a ruleset is loaded into the CAM arrays:

* ``byte_class`` / ``match_masks`` -- the byte alphabet is partitioned
  into the ``k`` equivalence classes no STE distinguishes
  (:func:`repro.compiler.passes.compute_alphabet_classes`), so the
  one-hot address decode of the state-matching memory is stored as a
  256-byte class map plus only ``k`` STE-bitmask entries instead of
  256 dense entries (``k`` is typically a few dozen for real rulesets);
* ``succ_masks`` -- per STE, the bitmask of STEs its activation enables
  for the next cycle (the programmed switch network);
* a flattened, topologically ordered counter/bit-vector op list with
  integer comparator constants and target masks (the module
  interconnect configuration).

The per-byte loop over these tables lives in
:class:`~repro.engine.scanner.StreamScanner`; it is plain integer
arithmetic, no per-node object traversal.  The contract is *exact*
equivalence with the reference simulator: identical distinct
``(position, report_id)`` report sets **and** identical
:class:`~repro.hardware.simulator.ActivityStats` (so the Table 2 energy
accounting is unchanged).  ``tests/engine/`` asserts both.

All fields are plain ints/lists/tuples, so tables pickle cheaply into
the compiled-ruleset cache (:mod:`repro.compiler.cache`) -- and carry
``prepared``, the block scanner's derived sweep program, with them.
The network they were lowered from is not kept: the tables are the
matcher, and only the ``reference`` oracle reads a network, which a
matcher compiles again from its rules when asked.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional

from ..compiler.passes import compute_alphabet_classes
from ..hardware.params import GEOMETRY
from ..hardware.simulator import _range_mask
from ..mnrl.network import Network
from ..mnrl.nodes import BitVectorNode, CounterNode, STE, StartType

__all__ = [
    "TransitionTables",
    "TableStats",
    "ModuleWiring",
    "compile_tables",
    "module_wiring",
    "table_stats",
    "PORT_PRE",
    "PORT_FST",
    "PORT_LST",
    "PORT_BODY",
    "KIND_COUNTER",
    "KIND_BIT_VECTOR",
    "SRC_OUT",
    "SRC_AUX",
]

#: Module input ports, encoded as bits of a per-module signal word.
PORT_PRE = 1
PORT_FST = 2
PORT_LST = 4
PORT_BODY = 8

_PORT_BITS = {"pre": PORT_PRE, "fst": PORT_FST, "lst": PORT_LST, "body": PORT_BODY}

KIND_COUNTER = 0
KIND_BIT_VECTOR = 1

#: Module output sources, as they appear in :class:`ModuleWiring`
#: driver pairs: the main ``en_out`` output or the auxiliary output
#: (``en_fst`` for counters, ``en_body`` for bit vectors).
SRC_OUT = 0
SRC_AUX = 1


@dataclass
class TransitionTables:
    """Dense precompiled form of one network (see module docstring).

    STEs are numbered ``0..n_stes-1`` (bit ``i`` of every STE mask is
    STE ``i``); modules are numbered ``0..n_modules-1`` in same-cycle
    topological order, so a single in-order pass per cycle resolves
    nested module-to-module signals exactly like the reference
    simulator's ``module_order`` walk.
    """

    # -- STE side ----------------------------------------------------------
    ste_ids: list[str] = field(default_factory=list)
    #: byte value -> alphabet equivalence-class index (256 entries; the
    #: scanner's per-byte lookup goes through this map)
    byte_class: bytes = bytes(256)
    #: class index -> bitmask of STEs whose symbol set contains the
    #: class (k entries, k <= 256)
    match_masks: list[int] = field(default_factory=list)
    #: STE index -> bitmask of STEs enabled next cycle by its activation
    succ_masks: list[int] = field(default_factory=list)
    #: STE index -> ((module index, port bit), ...) driven by activation
    ste_module_hooks: list[Optional[tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )
    #: STEs enabled on every symbol (ALL_INPUT)
    always_mask: int = 0
    #: STEs additionally enabled on the first symbol (START_OF_DATA)
    start_mask: int = 0
    #: reporting STEs
    report_ste_mask: int = 0
    #: report index -> report id: every distinct id of the network once,
    #: in first-seen order (STEs, then modules).  Scanners report
    #: ``(end, report index)`` columns against this table.
    report_ids: list[Optional[str]] = field(default_factory=list)
    #: STE index -> report index (-1 for non-reporting STEs)
    ste_report_index: list[int] = field(default_factory=list)

    # -- module side (indexed in topological order) ------------------------
    module_ids: list[str] = field(default_factory=list)
    module_kinds: list[int] = field(default_factory=list)
    module_lo: list[int] = field(default_factory=list)
    module_hi: list[int] = field(default_factory=list)
    #: live / en_out / en_body bit-range masks (zeros for counters)
    bv_live_masks: list[int] = field(default_factory=list)
    bv_out_masks: list[int] = field(default_factory=list)
    bv_body_masks: list[int] = field(default_factory=list)
    #: per-op energy weight: hi / physical module bits (zeros for counters)
    bv_weights: list[float] = field(default_factory=list)
    #: module reports on en_out?
    module_reports: list[bool] = field(default_factory=list)
    #: module index -> report index (-1 for non-reporting modules)
    module_report_index: list[int] = field(default_factory=list)
    #: start is ALL_INPUT (``pre`` re-armed every cycle)
    module_all_input: list[bool] = field(default_factory=list)
    #: initial prev_pre (START_OF_DATA or ALL_INPUT)
    module_initial_pre: list[bool] = field(default_factory=list)
    #: en_out -> STE targets, and the auxiliary output's STE targets
    #: (``en_fst`` for counters, ``en_body`` for bit vectors)
    out_ste_masks: list[int] = field(default_factory=list)
    aux_ste_masks: list[int] = field(default_factory=list)
    #: en_out / aux -> downstream module ports ((module index, port bit), ...)
    out_module_hooks: list[Optional[tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )
    aux_module_hooks: list[Optional[tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )
    #: STEs enabled every cycle by ALL_INPUT bit vectors' latched ``pre``
    #: (the reference re-arms those and enables their body STE each cycle)
    const_enable_mask: int = 0

    #: engine name -> that engine's table-derived, scan-invariant state
    #: (the block scanner's sweep program), filled on the cold compile
    #: path or on first scanner construction and read by every scanner
    #: over these tables.  It is a function of the fields above, so it
    #: takes no part in equality; it travels wherever the tables are
    #: pickled (cache artifacts), which is why what scanners put here
    #: holds builtins and ``repro`` classes only.
    prepared: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def n_stes(self) -> int:
        return len(self.ste_ids)

    @property
    def n_modules(self) -> int:
        return len(self.module_ids)

    @property
    def n_classes(self) -> int:
        """Alphabet equivalence classes ``k`` (``match_masks`` entries)."""
        return len(self.match_masks)

    def match_mask_for(self, byte: int) -> int:
        """STE match mask for one byte value (through the class map)."""
        return self.match_masks[self.byte_class[byte]]

    def initial_dirty(self) -> set[int]:
        """Modules that must be processed even without input signals.

        The scanner maintains the invariant that any skipped module is
        at rest (zero bit-vector state, ``prev_pre`` equal to its
        resting value).  START_OF_DATA modules begin with a latched
        virtual ``pre``, so they start dirty.
        """
        return {
            i
            for i in range(self.n_modules)
            if self.module_initial_pre[i] != self.module_all_input[i]
        }


def compile_tables(network: Network) -> TransitionTables:
    """Lower ``network`` into :class:`TransitionTables`.

    Mirrors ``NetworkSimulator._build_wiring`` exactly -- same port
    vocabulary, same same-cycle topological order over module-to-module
    connections (``pre`` is latched and excluded from the ordering).

    >>> from repro import compile_pattern, compile_tables
    >>> tables = compile_tables(compile_pattern("abc").network)
    >>> (tables.n_stes, tables.n_modules)
    (3, 0)
    """
    network.validate()
    tables = TransitionTables()

    stes = [node for node in network.nodes.values() if isinstance(node, STE)]
    ste_index = {ste.id: i for i, ste in enumerate(stes)}
    modules = [node for node in network.nodes.values() if not isinstance(node, STE)]
    module_topo = _topo_order(network, [m.id for m in modules])
    module_index = {module_id: i for i, module_id in enumerate(module_topo)}

    # -- STE tables --------------------------------------------------------
    # The byte alphabet collapses to its equivalence classes: bytes no
    # STE distinguishes share one match-mask entry, addressed through
    # the 256-byte class map.
    alphabet = compute_alphabet_classes(ste.symbol_set.mask for ste in stes)
    tables.byte_class = alphabet.byte_to_class
    tables.ste_ids = [ste.id for ste in stes]
    tables.match_masks = [0] * alphabet.n_classes
    tables.succ_masks = [0] * len(stes)
    tables.ste_report_index = [-1] * len(stes)
    report_index: dict[Optional[str], int] = {}
    ste_hooks: list[list[tuple[int, int]]] = [[] for _ in stes]
    byte_class = tables.byte_class
    for i, ste in enumerate(stes):
        bit = 1 << i
        symbol_mask = ste.symbol_set.mask
        while symbol_mask:
            low = symbol_mask & -symbol_mask
            symbol_mask ^= low
            tables.match_masks[byte_class[low.bit_length() - 1]] |= bit
        if ste.start is StartType.ALL_INPUT:
            tables.always_mask |= bit
        elif ste.start is StartType.START_OF_DATA:
            tables.start_mask |= bit
        if ste.report:
            tables.report_ste_mask |= bit
            tables.ste_report_index[i] = report_index.setdefault(
                ste.report_id, len(report_index)
            )

    # -- module tables -----------------------------------------------------
    n_modules = len(module_topo)
    tables.module_ids = list(module_topo)
    tables.module_kinds = [0] * n_modules
    tables.module_lo = [0] * n_modules
    tables.module_hi = [0] * n_modules
    tables.bv_live_masks = [0] * n_modules
    tables.bv_out_masks = [0] * n_modules
    tables.bv_body_masks = [0] * n_modules
    tables.bv_weights = [0.0] * n_modules
    tables.module_reports = [False] * n_modules
    tables.module_report_index = [-1] * n_modules
    tables.module_all_input = [False] * n_modules
    tables.module_initial_pre = [False] * n_modules
    tables.out_ste_masks = [0] * n_modules
    tables.aux_ste_masks = [0] * n_modules
    out_hooks: list[list[tuple[int, int]]] = [[] for _ in range(n_modules)]
    aux_hooks: list[list[tuple[int, int]]] = [[] for _ in range(n_modules)]

    for module in modules:
        i = module_index[module.id]
        tables.module_lo[i] = module.lo
        tables.module_hi[i] = module.hi
        tables.module_reports[i] = module.report
        if module.report:
            tables.module_report_index[i] = report_index.setdefault(
                module.report_id, len(report_index)
            )
        tables.module_all_input[i] = module.start is StartType.ALL_INPUT
        tables.module_initial_pre[i] = module.start in (
            StartType.START_OF_DATA,
            StartType.ALL_INPUT,
        )
        if isinstance(module, CounterNode):
            tables.module_kinds[i] = KIND_COUNTER
        else:
            assert isinstance(module, BitVectorNode)
            tables.module_kinds[i] = KIND_BIT_VECTOR
            tables.bv_live_masks[i] = _range_mask(1, module.hi)
            tables.bv_out_masks[i] = _range_mask(module.lo, module.hi)
            tables.bv_body_masks[i] = _range_mask(1, module.hi - 1)
            tables.bv_weights[i] = module.hi / GEOMETRY.bit_vector_bits_per_pe
    tables.report_ids = list(report_index)

    # -- connections -------------------------------------------------------
    for conn in network.connections:
        src_ste = ste_index.get(conn.source)
        dst_ste = ste_index.get(conn.target)
        if src_ste is not None and dst_ste is not None:
            tables.succ_masks[src_ste] |= 1 << dst_ste
        elif src_ste is not None:
            ste_hooks[src_ste].append(
                (module_index[conn.target], _PORT_BITS[conn.target_port])
            )
        else:
            src_mod = module_index[conn.source]
            is_aux = conn.source_port in ("en_fst", "en_body")
            if dst_ste is not None:
                if is_aux:
                    tables.aux_ste_masks[src_mod] |= 1 << dst_ste
                else:
                    tables.out_ste_masks[src_mod] |= 1 << dst_ste
            else:
                hook = (module_index[conn.target], _PORT_BITS[conn.target_port])
                (aux_hooks if is_aux else out_hooks)[src_mod].append(hook)

    tables.ste_module_hooks = [tuple(h) if h else None for h in ste_hooks]
    tables.out_module_hooks = [tuple(h) if h else None for h in out_hooks]
    tables.aux_module_hooks = [tuple(h) if h else None for h in aux_hooks]

    # ALL_INPUT bit vectors latch `pre` every cycle, which enables their
    # body STE every cycle -- fold that into one constant mask.
    for i in range(n_modules):
        if tables.module_all_input[i] and tables.module_kinds[i] == KIND_BIT_VECTOR:
            tables.const_enable_mask |= tables.aux_ste_masks[i]
    return tables


@dataclass(frozen=True)
class ModuleWiring:
    """Per-module inversion of the interconnect: who drives each port.

    :class:`TransitionTables` stores module wiring *forward* (per STE /
    per module, the ports it signals), which is what the per-byte
    interpreter wants.  A vectorized executor works the other way
    round: to evaluate a module's lanes over a block it must gather the
    lanes of everything feeding each of its input ports.  This is that
    inversion, computed once per tables:

    * ``ste_drivers[m][port_bit]`` -- STE indices whose activation
      signals the port (``PORT_PRE``/``PORT_FST``/``PORT_LST``/
      ``PORT_BODY``);
    * ``module_drivers[m][port_bit]`` -- ``(module, source)`` pairs,
      where source is :data:`SRC_OUT` (``en_out``) or :data:`SRC_AUX`
      (``en_fst``/``en_body``).

    Ports with no drivers are absent from the dicts.
    """

    ste_drivers: tuple[dict[int, tuple[int, ...]], ...]
    module_drivers: tuple[dict[int, tuple[tuple[int, int], ...]], ...]


def module_wiring(tables: TransitionTables) -> ModuleWiring:
    """Invert ``tables``' module hook lists into per-port driver lists
    (see :class:`ModuleWiring`).  O(hooks); duplicate connections to
    the same port collapse to one driver entry."""
    n_modules = tables.n_modules
    ste_drivers: list[dict[int, list[int]]] = [{} for _ in range(n_modules)]
    module_drivers: list[dict[int, list[tuple[int, int]]]] = [
        {} for _ in range(n_modules)
    ]
    for i, hooks in enumerate(tables.ste_module_hooks):
        if hooks is None:
            continue
        for target, port_bit in hooks:
            bucket = ste_drivers[target].setdefault(port_bit, [])
            if i not in bucket:
                bucket.append(i)
    for source_kind, hook_lists in (
        (SRC_OUT, tables.out_module_hooks),
        (SRC_AUX, tables.aux_module_hooks),
    ):
        for j, hooks in enumerate(hook_lists):
            if hooks is None:
                continue
            for target, port_bit in hooks:
                bucket = module_drivers[target].setdefault(port_bit, [])
                pair = (j, source_kind)
                if pair not in bucket:
                    bucket.append(pair)
    return ModuleWiring(
        ste_drivers=tuple(
            {port: tuple(drivers) for port, drivers in by_port.items()}
            for by_port in ste_drivers
        ),
        module_drivers=tuple(
            {port: tuple(drivers) for port, drivers in by_port.items()}
            for by_port in module_drivers
        ),
    )


@dataclass(frozen=True)
class TableStats:
    """Measured in-memory footprint of one :class:`TransitionTables`.

    ``dense_match_bytes`` is what the pre-compression layout (one mask
    per byte value) would occupy, so ``match_table_reduction`` is the
    directly comparable win of alphabet-class compression.  Sizes are
    ``sys.getsizeof`` of the mask integers (the dominant term for large
    rulesets, where each mask holds ``n_stes`` bits).
    """

    n_stes: int
    n_modules: int
    n_classes: int
    #: bytes held by the k compressed match-mask integers
    match_mask_bytes: int
    #: bytes the dense 256-entry layout would hold
    dense_match_bytes: int
    #: the 256-byte class map
    byte_class_bytes: int
    #: bytes held by the per-STE successor masks
    succ_mask_bytes: int

    @property
    def match_table_reduction(self) -> float:
        """Fraction of match-table bytes removed by class compression."""
        if self.dense_match_bytes == 0:
            return 0.0
        compressed = self.match_mask_bytes + self.byte_class_bytes
        return 1.0 - compressed / self.dense_match_bytes


def table_stats(tables: TransitionTables) -> TableStats:
    """Measure ``tables``' match/successor storage (see :class:`TableStats`)."""
    match_mask_bytes = sum(sys.getsizeof(mask) for mask in tables.match_masks)
    dense_match_bytes = sum(
        sys.getsizeof(tables.match_masks[tables.byte_class[byte]])
        for byte in range(256)
    )
    return TableStats(
        n_stes=tables.n_stes,
        n_modules=tables.n_modules,
        n_classes=tables.n_classes,
        match_mask_bytes=match_mask_bytes,
        dense_match_bytes=dense_match_bytes,
        byte_class_bytes=len(tables.byte_class),
        succ_mask_bytes=sum(sys.getsizeof(mask) for mask in tables.succ_masks),
    )


def _topo_order(network: Network, module_ids: list[str]) -> list[str]:
    """Same-cycle topological order of modules (latched ``pre`` edges
    excluded), identical to the reference simulator's ordering rule."""
    deps: dict[str, set[str]] = {module_id: set() for module_id in module_ids}
    for conn in network.connections:
        if (
            conn.source in deps
            and conn.target in deps
            and conn.target_port != "pre"
        ):
            deps[conn.target].add(conn.source)

    order: list[str] = []
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(module_id: str) -> None:
        if module_id in done:
            return
        if module_id in visiting:
            raise ValueError("combinational cycle between modules")
        visiting.add(module_id)
        for dep in deps.get(module_id, ()):
            visit(dep)
        visiting.discard(module_id)
        done.add(module_id)
        order.append(module_id)

    for module_id in module_ids:
        visit(module_id)
    return order
