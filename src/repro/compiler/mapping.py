"""Placement of compiled networks onto CAMA processing elements.

The paper's constraint (Fig. 5): "the input ports to the counter and
bit vector modules are connected to fixed groups of STEs ... We use an
efficient mapping algorithm to build the connection between ports and
STE groups so that we maintain the generality of the design but reduce
the complexity of routing."  Our mapping models that as:

* a module and every STE wired to one of its ports must share a PE
  (module port wiring is PE-local);
* each module input port accepts at most ``port_group_size`` (8)
  distinct STE drivers;
* PE capacities: 512 STE slots, 8 counters, 2000 bit-vector bits
  (segments of the PE's single module).

The algorithm is first-fit-decreasing over *placement atoms*: the
weakly-connected components of the graph whose edges are module-port
wires (so a counter travels with its pre/fst/lst STEs).  Free STEs of
the same pattern prefer the PE of their neighbours but may spill, like
the reduced-crossbar switch network allows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..hardware.cama import Bank, BankAllocationError, ProcessingElement
from ..hardware.params import CamaGeometry, GEOMETRY
from ..mnrl.network import Network
from ..mnrl.nodes import BitVectorNode, CounterNode, STE

__all__ = ["MappingViolation", "NetworkMapping", "map_network"]


@dataclass(frozen=True)
class MappingViolation:
    """A routing-constraint violation recorded during mapping."""

    node_id: str
    port: str
    detail: str


@dataclass
class NetworkMapping:
    """The placement result plus constraint diagnostics."""

    bank: Bank
    placement: dict[str, int] = field(default_factory=dict)  # node id -> PE index
    violations: list[MappingViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def pe_of(self, node_id: str) -> int:
        return self.placement[node_id]


@dataclass
class _Atom:
    """A co-placement unit: modules plus their port-wired STEs."""

    stes: list[str] = field(default_factory=list)
    counters: list[str] = field(default_factory=list)
    bv_segments: list[tuple[str, int]] = field(default_factory=list)

    @property
    def ste_count(self) -> int:
        return len(self.stes)

    @property
    def bv_bits(self) -> int:
        return sum(bits for _, bits in self.bv_segments)


def map_network(
    network: Network, geometry: CamaGeometry = GEOMETRY
) -> NetworkMapping:
    """Place ``network`` onto PEs, recording constraint violations.

    Oversized atoms (more port-wired STEs than one PE holds) are split
    with a violation note -- real toolchains would re-compile such
    rules with unfolding, and our compiler's policies never produce
    them, but imported MNRL files might.  The one thing no split can
    place is a single bit vector wider than a PE's module (segments
    never span PEs): that raises
    :class:`~repro.hardware.cama.BankAllocationError` naming the node.
    """
    bank = Bank(geometry=geometry)
    mapping = NetworkMapping(bank=bank)
    atoms = _atoms(network, geometry, mapping)

    # First-fit-decreasing placement of atoms into PEs; each atom's
    # (STEs, counters, bv bits) need is computed once.
    ordered = sorted(
        ((atom, (atom.ste_count, len(atom.counters), atom.bv_bits)) for atom in atoms),
        key=lambda entry: (entry[1][0], entry[1][2]),
        reverse=True,
    )
    # least need of any atom from position i on: a PE below it in some
    # dimension can take nothing more and leaves the search for good
    floors = [(0, 0, 0)] * len(ordered)
    least = (geometry.stes_per_pe + 1, geometry.counters_per_pe + 1,
             geometry.bit_vector_bits_per_pe + 1)
    for i in range(len(ordered) - 1, -1, -1):
        least = tuple(map(min, least, ordered[i][1]))
        floors[i] = least
    room: list[list[int]] = []  # per PE: STE, counter and bv-bit room left
    open_pes: list[int] = []  # PEs some later atom may still fit, by index

    def track_new_pes() -> None:
        for pe in bank.pes[len(room):]:
            room.append([pe.ste_room, pe.counter_room, pe.bv_bits_room])
            open_pes.append(pe.index)

    for i, (atom, need) in enumerate(ordered):
        stes, counters, bits = need
        if (
            stes > geometry.stes_per_pe
            or counters > geometry.counters_per_pe
            or bits > geometry.bit_vector_bits_per_pe
        ):
            _place_oversized(atom, bank, mapping, geometry)
            track_new_pes()
            continue
        target = None
        floor_stes, floor_counters, floor_bits = floors[i]
        j = 0
        while j < len(open_pes):
            left = room[open_pes[j]]
            if stes <= left[0] and counters <= left[1] and bits <= left[2]:
                target = bank.pes[open_pes[j]]
                break
            if left[0] < floor_stes or left[1] < floor_counters or left[2] < floor_bits:
                del open_pes[j]
            else:
                j += 1
        if target is None:
            target = bank.new_pe()
            track_new_pes()
        _place(atom, target, mapping)
        left = room[target.index]
        left[0] -= stes
        left[1] -= counters
        left[2] -= bits
    return mapping


def _atoms(
    network: Network, geometry: CamaGeometry, mapping: NetworkMapping
) -> list[_Atom]:
    """The placement atoms of ``network`` in node order, built by
    union-find over module-port wires; port-group violations are
    recorded on ``mapping``."""
    parent: dict[str, str] = {node_id: node_id for node_id in network.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    port_fanin: dict[tuple[str, str], set[str]] = defaultdict(set)
    for conn in network.connections:
        src_node = network.nodes[conn.source]
        dst_node = network.nodes[conn.target]
        src_is_module = not isinstance(src_node, STE)
        dst_is_module = not isinstance(dst_node, STE)
        if src_is_module or dst_is_module:
            union(conn.source, conn.target)
        if dst_is_module and isinstance(src_node, STE):
            port_fanin[(conn.target, conn.target_port)].add(conn.source)

    # Port-group constraint: at most `port_group_size` STE drivers/port.
    for (module_id, port), sources in sorted(port_fanin.items()):
        if len(sources) > geometry.port_group_size:
            mapping.violations.append(
                MappingViolation(
                    module_id,
                    port,
                    f"{len(sources)} STE drivers exceed the port group size "
                    f"{geometry.port_group_size}",
                )
            )

    atoms: dict[str, _Atom] = defaultdict(_Atom)
    for node_id, node in network.nodes.items():
        atom = atoms[find(node_id)]
        if isinstance(node, STE):
            atom.stes.append(node_id)
        elif isinstance(node, CounterNode):
            atom.counters.append(node_id)
        elif isinstance(node, BitVectorNode):
            atom.bv_segments.append((node_id, node.hi))
    return list(atoms.values())


def _place(atom: _Atom, pe: ProcessingElement, mapping: NetworkMapping) -> None:
    pe.place(atom.stes, atom.counters, atom.bv_segments)
    for node_id in atom.stes + atom.counters + [n for n, _ in atom.bv_segments]:
        mapping.placement[node_id] = pe.index


def _place_oversized(
    atom: _Atom,
    bank: Bank,
    mapping: NetworkMapping,
    geometry: CamaGeometry,
) -> None:
    """Split an oversized atom across fresh PEs, recording the breach."""
    for node_id, bits in atom.bv_segments:
        if bits > geometry.bit_vector_bits_per_pe:
            raise BankAllocationError(
                f"bit vector {node_id!r} needs {bits} bits; one PE's module "
                f"holds {geometry.bit_vector_bits_per_pe}"
            )
    label = atom.counters[0] if atom.counters else (
        atom.bv_segments[0][0] if atom.bv_segments else atom.stes[0]
    )
    mapping.violations.append(
        MappingViolation(
            label,
            "-",
            f"atom with {atom.ste_count} STEs / {len(atom.counters)} counters "
            f"/ {atom.bv_bits} bv bits exceeds one PE and was split",
        )
    )
    stes = list(atom.stes)
    counters = list(atom.counters)
    segments = list(atom.bv_segments)
    while stes or counters or segments:
        pe = bank.new_pe()
        take_stes = stes[: geometry.stes_per_pe]
        del stes[: geometry.stes_per_pe]
        take_counters = counters[: geometry.counters_per_pe]
        del counters[: geometry.counters_per_pe]
        take_segments: list[tuple[str, int]] = []
        room = geometry.bit_vector_bits_per_pe
        remaining: list[tuple[str, int]] = []
        for node_id, bits in segments:
            if bits <= room:
                take_segments.append((node_id, bits))
                room -= bits
            else:
                remaining.append((node_id, bits))
        segments = remaining
        chunk = _Atom(take_stes, take_counters, take_segments)
        _place(chunk, pe, mapping)
