"""Tests for network emission and the module-selection policy."""

import pytest

from repro.compiler.emit import Decision, EmitError, emit_network, plan_decisions
from repro.mnrl.nodes import BitVectorNode, CounterNode, STE, StartType
from repro.regex.parser import parse, parse_to_ast
from repro.regex.rewrite import simplify


def decisions_for(pattern: str, ambiguous: dict[int, bool], threshold: float = 0):
    ast = simplify(parse_to_ast(pattern))
    return ast, plan_decisions(ast, ambiguous, threshold)


class TestPolicy:
    def test_unambiguous_gets_counter(self):
        _, d = decisions_for("a(bc){2,9}d", {0: False})
        assert d[0] is Decision.COUNTER

    def test_ambiguous_single_class_gets_bitvector(self):
        _, d = decisions_for("a[bc]{2,9}d", {0: True})
        assert d[0] is Decision.BITVECTOR

    def test_ambiguous_general_body_unfolds(self):
        _, d = decisions_for("a(bc){2,9}d", {0: True})
        assert d[0] is Decision.UNFOLD

    def test_threshold_forces_unfold(self):
        _, d = decisions_for("a(bc){2,9}d", {0: False}, threshold=9)
        assert d[0] is Decision.UNFOLD

    def test_threshold_spares_larger_bounds(self):
        _, d = decisions_for("a(bc){2,9}d", {0: False}, threshold=8)
        assert d[0] is Decision.COUNTER

    def test_unfold_all(self):
        _, d = decisions_for("a[bc]{2,9}d", {0: True}, threshold=float("inf"))
        assert d[0] is Decision.UNFOLD

    def test_nullable_body_always_unfolds(self):
        _, d = decisions_for("(a?b?){2,9}", {0: False})
        assert d[0] is Decision.UNFOLD

    def test_bitvector_wider_than_one_pe_unfolds(self):
        # a bit vector is one segment of a PE's 2000-bit module
        _, d = decisions_for("a[bc]{2,2000}d", {0: True})
        assert d[0] is Decision.BITVECTOR
        _, d = decisions_for("a[bc]{2,2001}d", {0: True})
        assert d[0] is Decision.UNFOLD

    def test_missing_verdict_treated_ambiguous(self):
        _, d = decisions_for("a(bc){2,9}d", {})
        assert d[0] is Decision.UNFOLD  # general ambiguous body


class TestCounterWiring:
    """The counter module must be wired per Figure 6."""

    def network(self):
        ast = simplify(parse_to_ast("a(bc){2,4}d"))
        return emit_network(ast, {0: Decision.COUNTER}).network

    def test_node_inventory(self):
        net = self.network()
        assert net.ste_count() == 4  # a b c d
        assert net.counter_count() == 1

    def test_ports(self):
        net = self.network()
        (ctr,) = net.counters()
        incoming = {(c.source, c.target_port) for c in net.incoming(ctr.id)}
        by_pred = {
            n.symbol_set.to_pattern(): n.id for n in net.stes()
        }
        # pre <- a, fst <- b, lst <- c
        assert (by_pred["a"], "pre") in incoming
        assert (by_pred["b"], "fst") in incoming
        assert (by_pred["c"], "lst") in incoming
        outgoing = {(c.source_port, c.target) for c in net.outgoing(ctr.id)}
        # en_fst -> b, en_out -> d
        assert ("en_fst", by_pred["b"]) in outgoing
        assert ("en_out", by_pred["d"]) in outgoing

    def test_bounds_programmed(self):
        (ctr,) = self.network().counters()
        assert (ctr.lo, ctr.hi) == (2, 4)

    def test_counter_reports_when_final(self):
        ast = simplify(parse_to_ast("a(bc){2,4}"))
        emitted = emit_network(ast, {0: Decision.COUNTER}, report_id="r")
        (ctr,) = emitted.network.counters()
        assert ctr.report and ctr.report_id == "r"


class TestBitVectorWiring:
    """The bit-vector module must be wired per Figure 7."""

    def network(self):
        ast = simplify(parse_to_ast("a[ab]{2,4}b"))
        return emit_network(ast, {0: Decision.BITVECTOR}).network

    def test_node_inventory(self):
        net = self.network()
        assert net.ste_count() == 3  # a, [ab] body, b
        assert net.bit_vector_count() == 1

    def test_ports(self):
        net = self.network()
        (bv,) = net.bit_vectors()
        incoming = {(c.source, c.target_port) for c in net.incoming(bv.id)}
        body = next(
            n for n in net.stes() if n.symbol_set.to_pattern() == "[ab]"
        )
        assert (body.id, "body") in incoming
        assert any(port == "pre" for _, port in incoming)
        outgoing = {(c.source_port, c.target) for c in net.outgoing(bv.id)}
        assert ("en_body", body.id) in outgoing

    def test_rejects_multi_class_body(self):
        ast = simplify(parse_to_ast("a(bc){2,4}d"))
        with pytest.raises(EmitError):
            emit_network(ast, {0: Decision.BITVECTOR})


class TestUnfoldedEmission:
    def test_ste_chain_size(self):
        ast = simplify(parse_to_ast("a{3,7}"))
        net = emit_network(ast, {0: Decision.UNFOLD}).network
        assert net.ste_count() == 7
        assert net.counter_count() == 0

    def test_nested_duplication(self):
        # (a{5}b){3} unfolding the outer duplicates the inner counter
        ast = simplify(parse_to_ast("(a{5}b){3}"))
        net = emit_network(
            ast, {0: Decision.UNFOLD, 1: Decision.COUNTER}
        ).network
        assert net.counter_count() == 3
        assert net.ste_count() == 3 * (1 + 1)  # 3 copies of (a-body + b)

    def test_matches_language(self):
        from repro.hardware.simulator import NetworkSimulator
        from repro.regex.oracle import match_ends

        parsed = parse("a{2,4}b")
        ast = simplify(parsed.ast)
        emitted = emit_network(ast, {0: Decision.UNFOLD})
        sim = NetworkSimulator(emitted.network)
        search = simplify(parsed.search_ast())
        data = b"xaaabaab"
        want = [e for e in match_ends(search, data) if e >= 1]
        assert sim.match_ends(data) == want


class TestStartsAndReports:
    def test_unanchored_all_input(self):
        ast = simplify(parse_to_ast("ab"))
        net = emit_network(ast, {}, anchored_start=False).network
        starts = [n for n in net.stes() if n.start is StartType.ALL_INPUT]
        assert len(starts) == 1
        assert starts[0].symbol_set.to_pattern() == "a"

    def test_anchored_start_of_data(self):
        ast = simplify(parse_to_ast("ab"))
        net = emit_network(ast, {}, anchored_start=True).network
        starts = [n for n in net.stes() if n.start is StartType.START_OF_DATA]
        assert len(starts) == 1

    def test_leading_repeat_starts_module(self):
        ast = simplify(parse_to_ast("[ab]{2,5}c"))
        emitted = emit_network(
            ast, {0: Decision.BITVECTOR}, anchored_start=False
        )
        (bv,) = emitted.network.bit_vectors()
        assert bv.start is StartType.ALL_INPUT

    def test_alternation_multi_report(self):
        ast = simplify(parse_to_ast("ab|cd"))
        net = emit_network(ast, {}, report_id="r").network
        reporters = net.reporting_nodes()
        assert len(reporters) == 2
        assert all(n.report_id == "r" for n in reporters)

    def test_matches_empty_flag(self):
        ast = simplify(parse_to_ast("a*"))
        assert emit_network(ast, {}).matches_empty
        ast2 = simplify(parse_to_ast("a+"))
        assert not emit_network(ast2, {}).matches_empty
