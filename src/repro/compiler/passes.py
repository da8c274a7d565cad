"""Network-level optimisation passes (the compile-time half of the
paper's hardware wins).

The hardware amortizes everything it can *before* the first byte
arrives: CAM arrays are loaded once and shared by thousands of rules.
These passes give the software pipeline the same precompute leverage.
They run between :func:`~repro.compiler.emit.emit_network` (which
produces one shared :class:`~repro.mnrl.network.Network` per ruleset)
and :func:`~repro.engine.tables.compile_tables` (which lowers it to the
scan tables):

* :func:`compute_alphabet_classes` -- partition the 256 byte values
  into equivalence classes that no STE in the network distinguishes.
  Purely observational (nothing is rewritten); ``compile_tables``
  uses the partition to shrink ``match_masks`` from 256 dense entries
  to ``k`` class entries plus a 256-byte class map.
* :func:`eliminate_dead_nodes` -- remove nodes that can never fire
  (unreachable from any start, empty symbol sets, modules missing
  live drivers) or whose firing can never reach a reporting node.
* :func:`share_prefixes` -- classic multi-pattern prefix collapse:
  merge STEs that are behaviourally identical because they hold the
  same symbol set, the same start/report attributes, and the same
  (canonicalized) set of incoming signals.  Across a ruleset this
  folds the common prefixes of thousands of rules into one chain,
  shrinking the STE bitmask width the scanner loops over.  It is a
  worklist, built like the Aho-Corasick goto trie it reproduces: the
  incoming and successor sets are built once, every STE is keyed once
  into a key -> STE table, and a merge re-keys only the successors of
  the STE it drops -- so each edge is paid for per merge of its
  source, not once per round of a whole-network fixpoint.

Equivalence contract (asserted by ``tests/compiler/test_passes.py``):
optimized networks produce the **same distinct (position, report_id)
report set** as the unoptimized network on every input.  Activity
statistics (``ActivityStats``) are *not* preserved by -O1 -- merged
STEs activate once where duplicates activated in lockstep -- which is
why the Table 2 experiments pin ``opt_level=0``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from ..mnrl.network import Network
from ..mnrl.nodes import BitVectorNode, CounterNode, STE, StartType

__all__ = [
    "AlphabetClasses",
    "OptimizationReport",
    "compute_alphabet_classes",
    "eliminate_dead_nodes",
    "share_prefixes",
    "run_passes",
]


# ----------------------------------------------------------------------
# Alphabet equivalence classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlphabetClasses:
    """A partition of the byte alphabet none of the STEs can refine.

    Two bytes land in the same class iff exactly the same STEs match
    them; scanning may therefore look up per-*class* match masks
    through :attr:`byte_to_class` instead of a dense 256-entry table.
    """

    #: 256-entry map: byte value -> class index (class indices < 256)
    byte_to_class: bytes
    #: number of classes ``k`` (1 <= k <= 256)
    n_classes: int
    #: one representative byte per class, in class-index order
    representatives: tuple[int, ...]


def compute_alphabet_classes(
    network_or_classes: Network | Iterable[int],
) -> AlphabetClasses:
    """Partition bytes by which STE symbol sets contain them.

    Accepts a :class:`~repro.mnrl.network.Network` or an iterable of
    raw 256-bit symbol-set masks (one per STE).
    """
    if isinstance(network_or_classes, Network):
        masks: Iterable[int] = (
            ste.symbol_set.mask for ste in network_or_classes.stes()
        )
    else:
        masks = network_or_classes
    # signature[b] = bitset of the distinct masks containing byte b; STEs
    # with equal masks cannot split a class, so each mask counts once
    signatures = [0] * 256
    for index, mask in enumerate(dict.fromkeys(masks)):
        bit = 1 << index
        while mask:
            low = mask & -mask
            mask ^= low
            signatures[low.bit_length() - 1] |= bit
    class_of_signature: dict[int, int] = {}
    byte_to_class = bytearray(256)
    representatives: list[int] = []
    for byte, signature in enumerate(signatures):
        cls = class_of_signature.get(signature)
        if cls is None:
            cls = len(representatives)
            class_of_signature[signature] = cls
            representatives.append(byte)
        byte_to_class[byte] = cls
    return AlphabetClasses(
        byte_to_class=bytes(byte_to_class),
        n_classes=len(representatives),
        representatives=tuple(representatives),
    )


# ----------------------------------------------------------------------
# Dead / unreachable node elimination
# ----------------------------------------------------------------------
def eliminate_dead_nodes(network: Network) -> int:
    """Remove nodes that cannot affect any report; returns the count.

    A node is *dead* when it can never produce an output signal
    (``can_fire`` below is an over-approximation, so only certainly
    dead nodes qualify) or when no path of connections leads from it to
    a reporting node.  Removing a module can strand its feeder STEs, so
    the sweep iterates to a fixpoint.
    """
    removed = 0
    while True:
        doomed = _find_dead(network)
        if not doomed:
            return removed
        network.remove_nodes(doomed)
        removed += len(doomed)


def _find_dead(network: Network) -> set[str]:
    nodes = network.nodes
    in_edges: dict[str, list] = {node_id: [] for node_id in nodes}
    out_edges: dict[str, list] = {node_id: [] for node_id in nodes}
    for conn in network.connections:
        in_edges[conn.target].append(conn)
        out_edges[conn.source].append(conn)

    # can_fire: least fixpoint of "may ever raise an output signal",
    # propagated along out-edges from the nodes that start firing.
    can_fire: dict[str, bool] = {node_id: False for node_id in nodes}

    def fires(node_id: str) -> bool:
        node = nodes[node_id]
        if isinstance(node, STE):
            return not node.symbol_set.is_empty() and (
                node.start is not StartType.NONE
                or any(can_fire[c.source] for c in in_edges[node_id])
            )
        if isinstance(node, CounterNode):
            ports = {c.target_port for c in in_edges[node_id] if can_fire[c.source]}
            # a lo=0 counter satisfies lo <= count <= hi without any
            # fst ever arriving, so `lst` alone can fire en_out
            return "lst" in ports and (node.lo == 0 or "fst" in ports)
        assert isinstance(node, BitVectorNode)
        return any(
            c.target_port == "body" and can_fire[c.source] for c in in_edges[node_id]
        )

    work = list(nodes)
    while work:
        node_id = work.pop()
        if can_fire[node_id] or not fires(node_id):
            continue
        can_fire[node_id] = True
        work.extend(c.target for c in out_edges[node_id] if not can_fire[c.target])

    # useful: reaches a reporting node along connections.
    useful = {node_id for node_id, node in nodes.items() if node.report}
    stack = list(useful)
    while stack:
        node_id = stack.pop()
        for conn in in_edges[node_id]:
            if conn.source not in useful:
                useful.add(conn.source)
                stack.append(conn.source)

    doomed = {
        node_id
        for node_id in nodes
        if not can_fire[node_id] or node_id not in useful
    }

    # Validate-preserving retention: a surviving module must keep at
    # least one driver on each structurally required port (counters:
    # fst/lst, bit vectors: body, plus pre when start is NONE), even if
    # that driver can never signal -- ``Network.validate`` checks
    # wiring, not liveness.  Keeping a module can in turn require
    # keeping its own drivers, so iterate.
    changed = True
    while changed:
        changed = False
        for node_id, node in nodes.items():
            if node_id in doomed or isinstance(node, STE):
                continue
            if isinstance(node, CounterNode):
                required = {"fst", "lst"}
            else:
                required = {"body"}
            if node.start is StartType.NONE:
                required.add("pre")
            for port in required:
                drivers = [
                    c.source
                    for c in in_edges[node_id]
                    if c.target_port == port
                ]
                if drivers and all(d in doomed for d in drivers):
                    doomed.discard(drivers[0])
                    changed = True
    return doomed


# ----------------------------------------------------------------------
# Cross-rule prefix sharing
# ----------------------------------------------------------------------
_SELF = "<self>"


def share_prefixes(network: Network) -> int:
    """Merge behaviourally identical STEs; returns how many were folded.

    Two STEs merge when they hold the same symbol set, the same start
    type, the same report metadata, and the same set of incoming
    ``(source, source port)`` signals once sources are canonicalized
    through earlier merges (a self-loop counts as the sentinel
    "myself", so parallel ``x+`` chains fold too).  Identical incoming
    context means the pair is enabled on exactly the same cycles, and
    an identical symbol set means it then activates on exactly the same
    bytes -- so routing the union of their outgoing edges from one
    surviving STE is report-preserving.  Each merge re-canonicalizes
    the dropped STE's successors, collapsing shared rule prefixes chain
    by chain (the classic multi-pattern prefix-tree collapse).

    The collapse is a worklist over one key -> STE table: every STE is
    keyed once in node order, and a merge re-keys only the successors
    of the STE it drops, so each connection is redirected at most once
    per merge of its source.  The survivor of every merge is the STE
    earliest in node order.  Two STEs with equal keys keep equal keys
    under any later merge (an STE never shares a key with one of its
    own sources), so the result is the unique fixpoint whatever order
    the merges happen in.
    """
    nodes = network.nodes
    order = {node_id: i for i, node_id in enumerate(nodes)}
    attrs: dict[str, tuple] = {}
    incoming: dict[str, set[tuple[str, str]]] = {}
    succ: dict[str, set[tuple[str, str]]] = {}
    for ste in network.stes():
        attrs[ste.id] = (ste.symbol_set.mask, ste.start, ste.report, ste.report_id)
        incoming[ste.id] = set()
        succ[ste.id] = set()
    for conn in network.connections:
        target_in = incoming.get(conn.target)
        if target_in is None:
            continue  # module inputs are not part of any key
        if conn.source == conn.target:
            target_in.add((_SELF, conn.source_port))
            continue
        target_in.add((conn.source, conn.source_port))
        if conn.source in succ:
            succ[conn.source].add((conn.target, conn.source_port))

    canon: dict[str, str] = {}
    holder: dict[tuple, str] = {}  # key -> the live STE that holds it
    held: dict[str, tuple] = {}  # live STE -> its key, while up to date
    work = deque(incoming)
    queued = set(incoming)

    def rekey(ste_id: str) -> None:
        key = held.pop(ste_id, None)
        if key is not None and holder.get(key) == ste_id:
            del holder[key]
        if ste_id not in queued:
            queued.add(ste_id)
            work.append(ste_id)

    while work:
        node = work.popleft()
        queued.discard(node)
        if node in canon:
            continue
        key = (attrs[node], frozenset(incoming[node]))
        other = holder.get(key)
        if other is None:
            holder[key] = node
            held[node] = key
            continue
        keep, drop = (other, node) if order[other] < order[node] else (node, other)
        canon[drop] = keep
        held.pop(drop, None)
        holder[key] = keep
        held[keep] = key
        # redirect the dropped STE's outgoing signals to the survivor
        keep_succ = succ[keep]
        for target, port in succ.pop(drop):
            if target in canon:
                continue  # folded already; its survivor has the edge
            target_in = incoming[target]
            target_in.discard((drop, port))
            if target == keep:
                target_in.add((_SELF, port))
            else:
                target_in.add((keep, port))
                keep_succ.add((target, port))
            rekey(target)

    def resolve(node_id: str) -> str:
        while node_id in canon:
            node_id = canon[node_id]
        return node_id

    if canon:
        network.merge_nodes({drop: resolve(drop) for drop in canon})
    return len(canon)


# ----------------------------------------------------------------------
# The pipeline driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizationReport:
    """What the pass pipeline did to one ruleset network."""

    opt_level: int
    nodes_before: int
    nodes_after: int
    stes_before: int
    stes_after: int
    #: nodes eliminated as dead/unreachable
    removed_nodes: int
    #: STEs folded away by cross-rule prefix sharing
    merged_stes: int
    #: alphabet equivalence classes after optimisation (k <= 256)
    alphabet_classes: int

    def describe(self) -> str:
        return (
            f"-O{self.opt_level}: {self.nodes_before} -> {self.nodes_after} nodes "
            f"({self.removed_nodes} dead removed, {self.merged_stes} STEs merged), "
            f"{self.alphabet_classes} alphabet classes"
        )


def run_passes(network: Network, opt_level: int = 1) -> OptimizationReport:
    """Run the optimisation pipeline on ``network`` in place.

    ``opt_level`` semantics (mirrored by ``compile_ruleset`` /
    ``RulesetMatcher``):

    * ``0`` -- no rewriting at all: the network, its resource counts,
      and its :class:`~repro.hardware.simulator.ActivityStats` stay
      byte-identical to the unoptimized pipeline (alphabet-class table
      compression still applies at lowering time -- it is a pure
      indexing change with no semantic footprint).
    * ``1`` and above -- dead-node elimination followed by cross-rule
      prefix sharing.  Exact report-set equivalence is guaranteed;
      activity statistics and resource counts may (deliberately)
      shrink.
    """
    if opt_level < 0:
        raise ValueError(f"opt_level must be >= 0, got {opt_level}")
    nodes_before = network.node_count()
    stes_before = network.ste_count()
    removed = merged = 0
    if opt_level >= 1:
        removed = eliminate_dead_nodes(network)
        merged = share_prefixes(network)
    return OptimizationReport(
        opt_level=opt_level,
        nodes_before=nodes_before,
        nodes_after=network.node_count(),
        stes_before=stes_before,
        stes_after=network.ste_count(),
        removed_nodes=removed,
        merged_stes=merged,
        alphabet_classes=compute_alphabet_classes(network).n_classes,
    )
