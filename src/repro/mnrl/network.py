"""MNRL-style networks: nodes plus port-level connections.

A :class:`Network` is the compiler's output and the simulator's input:
a set of :mod:`nodes <repro.mnrl.nodes>` and directed connections
``(source node, source port) -> (destination node, destination port)``.
Validation enforces the port vocabulary of each node kind and the
structural rules the hardware imposes (e.g. a counter's ``fst`` port
listens to STEs only -- it observes state *matching*, not module
outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .nodes import (
    BitVectorNode,
    CounterNode,
    INPUT_PORTS,
    Node,
    OUTPUT_PORTS,
    STE,
    StartType,
)

__all__ = ["Connection", "Network"]


@dataclass(frozen=True)
class Connection:
    source: str
    source_port: str
    target: str
    target_port: str

    def describe(self) -> str:
        return f"{self.source}.{self.source_port} -> {self.target}.{self.target_port}"


class Network:
    """A validated automaton network."""

    def __init__(self, network_id: str = "network"):
        self.id = network_id
        self.nodes: dict[str, Node] = {}
        self.connections: list[Connection] = []
        self._conn_keys: set[tuple[str, str, str, str]] = set()

    # -- construction -------------------------------------------------------
    def add(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        return node

    def connect(
        self, source: str, source_port: str, target: str, target_port: str
    ) -> None:
        src = self.nodes.get(source)
        dst = self.nodes.get(target)
        if src is None or dst is None:
            raise KeyError(f"unknown node in connection {source} -> {target}")
        if source_port not in OUTPUT_PORTS[src.kind]:
            raise ValueError(f"{src.kind} has no output port {source_port!r}")
        if target_port not in INPUT_PORTS[dst.kind]:
            raise ValueError(f"{dst.kind} has no input port {target_port!r}")
        if target_port == "fst" and not isinstance(src, STE):
            raise ValueError("counter 'fst' port must be driven by an STE")
        if target_port == "body" and not isinstance(src, STE):
            raise ValueError("bit-vector 'body' port must be driven by an STE")
        key = (source, source_port, target, target_port)
        if key in self._conn_keys:
            return
        self._conn_keys.add(key)
        self.connections.append(Connection(*key))

    # -- views ----------------------------------------------------------------
    def stes(self) -> Iterator[STE]:
        for node in self.nodes.values():
            if isinstance(node, STE):
                yield node

    def counters(self) -> Iterator[CounterNode]:
        for node in self.nodes.values():
            if isinstance(node, CounterNode):
                yield node

    def bit_vectors(self) -> Iterator[BitVectorNode]:
        for node in self.nodes.values():
            if isinstance(node, BitVectorNode):
                yield node

    def outgoing(self, node_id: str) -> list[Connection]:
        return [c for c in self.connections if c.source == node_id]

    def incoming(self, node_id: str) -> list[Connection]:
        return [c for c in self.connections if c.target == node_id]

    def reporting_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.report]

    # -- statistics (Fig. 9 plots "# of MNRL nodes") ---------------------------
    def node_count(self) -> int:
        return len(self.nodes)

    def ste_count(self) -> int:
        return sum(1 for _ in self.stes())

    def counter_count(self) -> int:
        return sum(1 for _ in self.counters())

    def bit_vector_count(self) -> int:
        return sum(1 for _ in self.bit_vectors())

    def bit_vector_bits(self) -> int:
        """Total *live* bit-vector bits (bounds, not allocated sizes)."""
        return sum(bv.hi for bv in self.bit_vectors())

    def merge(self, other: "Network", prefix: str = "") -> dict[str, str]:
        """Copy ``other`` into this network, prefixing ids; returns the
        id mapping.  Used to assemble whole-benchmark networks from
        per-rule compilations (the hardware banks run many rules side
        by side)."""
        mapping: dict[str, str] = {}
        for node_id, node in other.nodes.items():
            new_id = f"{prefix}{node_id}"
            mapping[node_id] = new_id
            clone = _clone_node(node, new_id)
            self.add(clone)
        for conn in other.connections:
            self.connect(
                mapping[conn.source],
                conn.source_port,
                mapping[conn.target],
                conn.target_port,
            )
        return mapping

    # -- surgery (used by the optimisation passes) ---------------------------
    def remove_nodes(self, node_ids: Iterable[str]) -> None:
        """Drop ``node_ids`` and every connection touching them."""
        doomed = set(node_ids)
        if not doomed:
            return
        missing = doomed - self.nodes.keys()
        if missing:
            raise KeyError(f"cannot remove unknown nodes {sorted(missing)}")
        for node_id in doomed:
            del self.nodes[node_id]
        self.connections = [
            c
            for c in self.connections
            if c.source not in doomed and c.target not in doomed
        ]
        self._conn_keys = {
            (c.source, c.source_port, c.target, c.target_port)
            for c in self.connections
        }

    def merge_nodes(self, mapping: dict[str, str]) -> None:
        """Fold each key of ``mapping`` into its value.

        Every connection endpoint naming a dropped node is redirected to
        the kept node (chains like ``a -> b -> c`` resolve to ``c``);
        duplicate connections produced by the redirect collapse.  The
        caller guarantees the merged nodes are behaviourally identical
        (same symbol set / start / report metadata) -- this method only
        performs the graph surgery.
        """
        if not mapping:
            return

        def resolve(node_id: str) -> str:
            seen = set()
            while node_id in mapping:
                if node_id in seen:
                    raise ValueError(f"merge cycle through {node_id!r}")
                seen.add(node_id)
                node_id = mapping[node_id]
            return node_id

        final: dict[str, str] = {}
        for drop, keep in mapping.items():
            final[drop] = resolve(keep)
            if drop not in self.nodes or final[drop] not in self.nodes:
                raise KeyError(f"unknown node in merge {drop!r} -> {keep!r}")
        keys: set[tuple[str, str, str, str]] = set()
        merged: list[Connection] = []
        for conn in self.connections:
            key = (
                final.get(conn.source, conn.source),
                conn.source_port,
                final.get(conn.target, conn.target),
                conn.target_port,
            )
            if key in keys:
                continue
            keys.add(key)
            merged.append(Connection(*key))
        for drop in mapping:
            del self.nodes[drop]
        self.connections = merged
        self._conn_keys = keys

    def rename_nodes(self, mapping: dict[str, str]) -> None:
        """Give nodes new ids (order preserved, wiring rewritten)."""
        if not mapping:
            return
        for old, new in mapping.items():
            if old not in self.nodes:
                raise KeyError(f"cannot rename unknown node {old!r}")
            if new in self.nodes and new not in mapping:
                raise ValueError(f"rename target id {new!r} already in use")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("rename targets collide")
        renamed: dict[str, Node] = {}
        for node_id, node in self.nodes.items():
            new_id = mapping.get(node_id, node_id)
            node.id = new_id
            renamed[new_id] = node
        self.nodes = renamed
        self.connections = [
            Connection(
                mapping.get(c.source, c.source),
                c.source_port,
                mapping.get(c.target, c.target),
                c.target_port,
            )
            for c in self.connections
        ]
        self._conn_keys = {
            (c.source, c.source_port, c.target, c.target_port)
            for c in self.connections
        }

    def validate(self) -> None:
        """Structural sanity: counters/bit-vectors fully wired.

        Each counter needs ``fst`` and ``lst`` drivers (``pre`` may be
        replaced by a start attribute); each bit vector needs a
        ``body`` driver.
        """
        driven: dict[str, set[str]] = {}
        for conn in self.connections:
            driven.setdefault(conn.target, set()).add(conn.target_port)
        for node in self.nodes.values():
            if isinstance(node, CounterNode):
                ports = driven.get(node.id, ())
                if "fst" not in ports or "lst" not in ports:
                    raise ValueError(f"counter {node.id} missing fst/lst wiring")
                if "pre" not in ports and node.start is StartType.NONE:
                    raise ValueError(f"counter {node.id} has no pre and no start")
            elif isinstance(node, BitVectorNode):
                ports = driven.get(node.id, ())
                if "body" not in ports:
                    raise ValueError(f"bit vector {node.id} missing body wiring")
                if "pre" not in ports and node.start is StartType.NONE:
                    raise ValueError(f"bit vector {node.id} has no pre and no start")


def _clone_node(node: Node, new_id: str) -> Node:
    if isinstance(node, STE):
        return STE(new_id, node.symbol_set, node.start, node.report, node.report_id)
    if isinstance(node, CounterNode):
        return CounterNode(
            new_id, node.lo, node.hi, node.start, node.report, node.report_id, node.width
        )
    if isinstance(node, BitVectorNode):
        return BitVectorNode(
            new_id, node.lo, node.hi, node.start, node.report, node.report_id, node.size
        )
    raise TypeError(f"unknown node type {type(node).__name__}")
