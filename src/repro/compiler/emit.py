"""Network emission: regex AST + analysis verdicts -> MNRL network.

This implements the module-selection policy of Sections 4.1-4.2.  Per
occurrence of bounded repetition ``r{m,n}``:

* ``n <= unfold threshold``       -> unfold into STEs (cheap, and what
                                     plain CAMA would do anyway);
* counter-unambiguous             -> counter module (any body shape,
                                     Fig. 6);
* counter-ambiguous, body is one
  character class                 -> bit-vector module (Fig. 7), if
                                     ``n`` fits one PE's 2000-bit
                                     module (else unfold);
* counter-ambiguous, general body -> unfold ("use (partial) unfolding
                                     for other cases" -- the paper
                                     handles the rare general ambiguous
                                     case in the compiler).

Additionally a nullable body always unfolds: the hardware modules
assume each pass consumes at least one symbol.

Emission is a Glushkov construction over hardware elements: fragments
expose their *enable entry points* (STE ``i`` ports plus module ``pre``
ports) and their *match outputs* (STE activations or module ``en_out``
signals), and combinators wire them exactly like first/last/follow
sets.  Re-emitting a subtree (for unfolding) mints fresh elements each
time, which is precisely the STE duplication the paper's Figure 4(c)
depicts for unfolded counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..hardware.params import GEOMETRY
from ..mnrl.network import Network
from ..mnrl.nodes import BitVectorNode, CounterNode, STE, StartType
from ..regex.ast import (
    Alt,
    Concat,
    Empty,
    Epsilon,
    Regex,
    Repeat,
    Star,
    Sym,
)

__all__ = ["Decision", "EmitError", "emit_network", "plan_decisions"]


class Decision(Enum):
    """Per-occurrence implementation choice."""

    UNFOLD = "unfold"
    COUNTER = "counter"
    BITVECTOR = "bitvector"


class EmitError(Exception):
    """The AST cannot be emitted (e.g. unbounded repetition survived)."""


Port = tuple[str, str]  # (node id, port name)


@dataclass(frozen=True)
class _Fragment:
    """Hardware Glushkov fragment.

    ``inputs`` are enable entry points; driving them (or marking them
    started) lets the fragment begin matching.  ``outputs`` fire on the
    cycle the fragment completes a match.  ``first_stes`` are the STEs
    whose activation means "a pass through this fragment just began"
    (what a parent counter's ``fst`` port observes).
    """

    nullable: bool
    inputs: tuple[Port, ...]
    outputs: tuple[Port, ...]
    first_stes: tuple[str, ...]


_EMPTY_FRAGMENT = _Fragment(False, (), (), ())
_EPSILON_FRAGMENT = _Fragment(True, (), (), ())


def plan_decisions(
    ast: Regex,
    ambiguous: dict[int, bool],
    unfold_threshold: float = 0,
    module_unsafe: frozenset[int] | set[int] = frozenset(),
) -> dict[int, Decision]:
    """Choose an implementation per occurrence (preorder-indexed).

    ``ambiguous`` maps instance index -> treat-as-ambiguous verdict
    (inconclusive analyses must come in as True).  ``unfold_threshold``
    is the Figure 9/10 knob: occurrences with upper bound <= threshold
    unfold; ``float('inf')`` reproduces the unfold-all baseline.
    ``module_unsafe`` lists unambiguous instances that nevertheless can
    hold two simultaneous body tokens -- one counter register cannot
    serve them (see :mod:`repro.analysis.module_safety`), so they
    unfold instead.  A bit vector needs ``n`` bits of one PE's module
    (segments do not span PEs), so a wider one unfolds too.
    """
    from ..regex.ast import collect_repeats

    decisions: dict[int, Decision] = {}
    for inst in collect_repeats(ast):
        node = inst.node
        if node.hi is None:
            raise EmitError("unbounded repetition must be lowered before emission")
        if node.hi <= unfold_threshold or node.inner.nullable():
            decisions[inst.index] = Decision.UNFOLD
        elif ambiguous.get(inst.index, True) or inst.index in module_unsafe:
            if (
                isinstance(node.inner, Sym)
                and node.hi <= GEOMETRY.bit_vector_bits_per_pe
            ):
                decisions[inst.index] = Decision.BITVECTOR
            else:
                decisions[inst.index] = Decision.UNFOLD
        else:
            decisions[inst.index] = Decision.COUNTER
    return decisions


class _Emitter:
    def __init__(
        self,
        network: Network,
        decisions: dict[int, Decision],
        prefix: str,
        bv_module_size: Optional[int],
    ):
        self.network = network
        self.decisions = decisions
        self.prefix = prefix
        self.bv_module_size = bv_module_size
        self._serial = 0
        self._instance_paths: dict[tuple[int, ...], int] = {}

    def fresh_id(self, stem: str) -> str:
        self._serial += 1
        return f"{self.prefix}{stem}{self._serial}"

    # -- wiring helpers ------------------------------------------------------
    def link(self, outputs: tuple[Port, ...], inputs: tuple[Port, ...]) -> None:
        for src, src_port in outputs:
            for dst, dst_port in inputs:
                self.network.connect(src, src_port, dst, dst_port)

    # -- recursion -------------------------------------------------------------
    def visit(self, node: Regex, path: tuple[int, ...]) -> _Fragment:
        if isinstance(node, Empty):
            return _EMPTY_FRAGMENT
        if isinstance(node, Epsilon):
            return _EPSILON_FRAGMENT
        if isinstance(node, Sym):
            ste = self.network.add(STE(self.fresh_id("s"), node.cls))
            return _Fragment(
                False, ((ste.id, "i"),), ((ste.id, "o"),), (ste.id,)
            )
        if isinstance(node, Concat):
            return self._visit_concat(node, path)
        if isinstance(node, Alt):
            return self._visit_alt(node, path)
        if isinstance(node, Star):
            frag = self.visit(node.inner, path + (0,))
            self.link(frag.outputs, frag.inputs)
            return _Fragment(True, frag.inputs, frag.outputs, frag.first_stes)
        if isinstance(node, Repeat):
            return self._visit_repeat(node, path)
        raise EmitError(f"cannot emit node {type(node).__name__}")

    def _visit_concat(self, node: Concat, path: tuple[int, ...]) -> _Fragment:
        frags = [
            self.visit(part, path + (i,)) for i, part in enumerate(node.parts)
        ]
        return self._sequence(frags)

    def _sequence(self, frags: list[_Fragment]) -> _Fragment:
        for i in range(len(frags) - 1):
            for j in range(i + 1, len(frags)):
                self.link(frags[i].outputs, frags[j].inputs)
                if not frags[j].nullable:
                    break
        inputs: list[Port] = []
        first_stes: list[str] = []
        for frag in frags:
            inputs.extend(frag.inputs)
            first_stes.extend(frag.first_stes)
            if not frag.nullable:
                break
        outputs: list[Port] = []
        for frag in reversed(frags):
            outputs.extend(frag.outputs)
            if not frag.nullable:
                break
        nullable = all(f.nullable for f in frags)
        return _Fragment(nullable, tuple(inputs), tuple(outputs), tuple(first_stes))

    def _visit_alt(self, node: Alt, path: tuple[int, ...]) -> _Fragment:
        inputs: list[Port] = []
        outputs: list[Port] = []
        first_stes: list[str] = []
        nullable = False
        for i, part in enumerate(node.parts):
            frag = self.visit(part, path + (i,))
            inputs.extend(frag.inputs)
            outputs.extend(frag.outputs)
            first_stes.extend(frag.first_stes)
            nullable = nullable or frag.nullable
        return _Fragment(nullable, tuple(inputs), tuple(outputs), tuple(first_stes))

    def _visit_repeat(self, node: Repeat, path: tuple[int, ...]) -> _Fragment:
        index = self._instance_index(path)
        decision = self.decisions.get(index, Decision.UNFOLD)
        if decision is Decision.UNFOLD:
            return self._emit_unfolded(node, path)
        if decision is Decision.COUNTER:
            return self._emit_counter(node, path)
        return self._emit_bitvector(node)

    def _instance_index(self, path: tuple[int, ...]) -> int:
        # Preorder index among Repeat nodes; paths are stable because
        # unfolding re-visits the *same* subtree rather than rebuilding
        # it, so duplicated inner occurrences share the original index.
        if path not in self._instance_paths:
            self._instance_paths[path] = len(self._instance_paths)
        return self._instance_paths[path]

    def _emit_unfolded(self, node: Repeat, path: tuple[int, ...]) -> _Fragment:
        if node.hi is None:
            raise EmitError("unbounded repetition must be lowered before emission")
        frags: list[_Fragment] = []
        inner_path = path + (0,)
        for _ in range(node.lo):
            frags.append(self.visit(node.inner, inner_path))
        for _ in range(node.hi - node.lo):
            frag = self.visit(node.inner, inner_path)
            # optional copy: same wiring, but skippable
            frags.append(
                _Fragment(True, frag.inputs, frag.outputs, frag.first_stes)
            )
        if not frags:
            return _EPSILON_FRAGMENT
        return self._sequence(frags)

    def _emit_counter(self, node: Repeat, path: tuple[int, ...]) -> _Fragment:
        body = self.visit(node.inner, path + (0,))
        if body.nullable or not body.first_stes:
            raise EmitError("counter module requires a non-nullable body")
        ctr = self.network.add(
            CounterNode(self.fresh_id("c"), max(node.lo, 1), node.hi)
        )
        for ste_id in body.first_stes:
            self.network.connect(ste_id, "o", ctr.id, "fst")
        self.link(body.outputs, ((ctr.id, "lst"),))
        self.link(((ctr.id, "en_fst"),), body.inputs)
        inputs = body.inputs + ((ctr.id, "pre"),)
        return _Fragment(
            node.lo == 0, inputs, ((ctr.id, "en_out"),), body.first_stes
        )

    def _emit_bitvector(self, node: Repeat) -> _Fragment:
        if not isinstance(node.inner, Sym):
            raise EmitError("bit-vector module requires a single-class body")
        ste = self.network.add(STE(self.fresh_id("s"), node.inner.cls))
        bv = self.network.add(
            BitVectorNode(
                self.fresh_id("v"),
                max(node.lo, 1),
                node.hi,
                size=self.bv_module_size,
            )
        )
        self.network.connect(ste.id, "o", bv.id, "body")
        self.network.connect(bv.id, "en_body", ste.id, "i")
        inputs = ((ste.id, "i"), (bv.id, "pre"))
        return _Fragment(node.lo == 0, inputs, ((bv.id, "en_out"),), (ste.id,))


@dataclass
class EmittedPattern:
    """Result of emitting one pattern into a (possibly shared) network."""

    network: Network
    inputs: tuple[Port, ...]
    outputs: tuple[Port, ...]
    matches_empty: bool
    decisions: dict[int, Decision] = field(default_factory=dict)


def emit_network(
    ast: Regex,
    decisions: dict[int, Decision],
    anchored_start: bool = False,
    report_id: Optional[str] = None,
    network: Optional[Network] = None,
    prefix: str = "",
    bv_module_size: Optional[int] = None,
) -> EmittedPattern:
    """Emit one pattern into ``network`` (a fresh one if not given).

    Entry points get ``ALL_INPUT`` starts for unanchored patterns
    (``START_OF_DATA`` when anchored), and every match output is marked
    reporting with ``report_id``.
    """
    if network is None:
        network = Network(report_id or "pattern")
    emitter = _Emitter(network, decisions, prefix, bv_module_size)
    frag = emitter.visit(ast, ())
    start = StartType.START_OF_DATA if anchored_start else StartType.ALL_INPUT
    for node_id, port in frag.inputs:
        node = network.nodes[node_id]
        if isinstance(node, STE) or port == "pre":
            node.start = start
    for node_id, port in frag.outputs:
        node = network.nodes[node_id]
        node.report = True
        if report_id is not None:
            node.report_id = report_id
    return EmittedPattern(
        network=network,
        inputs=frag.inputs,
        outputs=frag.outputs,
        matches_empty=frag.nullable,
        decisions=dict(decisions),
    )
