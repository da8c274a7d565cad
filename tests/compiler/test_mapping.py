"""Tests for CAMA placement (PE packing, co-location, port groups)."""

import re

import pytest

from repro.compiler.emit import Decision
from repro.compiler.mapping import map_network
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.backends import available_engines
from repro.hardware.cama import BankAllocationError
from repro.hardware.params import CamaGeometry
from repro.matching import RulesetMatcher
from repro.mnrl.network import Network
from repro.mnrl.nodes import BitVectorNode, CounterNode, STE, StartType
from repro.regex.charclass import CharClass


class TestBasicPlacement:
    def test_small_pattern_fits_one_pe(self):
        compiled = compile_pattern(r"a(bc){2,9}d")
        mapping = map_network(compiled.network)
        assert mapping.ok
        assert mapping.bank.pes_used == 1
        assert mapping.bank.cam_arrays_used == 1

    def test_module_colocated_with_port_stes(self):
        compiled = compile_pattern(r"x[^a]a{2,40}y")
        mapping = map_network(compiled.network)
        net = compiled.network
        (ctr,) = net.counters()
        pe = mapping.pe_of(ctr.id)
        for conn in net.incoming(ctr.id):
            assert mapping.pe_of(conn.source) == pe

    def test_every_node_placed(self):
        rs = compile_ruleset([r"[^a]a{2,30}", r"foo.{3,20}bar", r"(xy)+z"])
        mapping = map_network(rs.network)
        assert set(mapping.placement) == set(rs.network.nodes)


class TestCapacities:
    def test_many_rules_spill_to_new_pes(self):
        rules = [(f"r{i}", "abcdefgh" * 8) for i in range(20)]
        rs = compile_ruleset(rules)  # 64 STEs per rule = 1280 total
        mapping = map_network(rs.network)
        assert mapping.bank.pes_used >= 3  # 512 STEs per PE
        geometry = mapping.bank.geometry
        for pe in mapping.bank.pes:
            assert len(pe.stes) <= geometry.stes_per_pe
            assert len(pe.counters) <= geometry.counters_per_pe
            assert pe.bv_bits_used <= geometry.bit_vector_bits_per_pe

    def test_bit_vector_segments_share_module(self):
        # two small bit vectors pack into one PE's 2000-bit module
        rs = compile_ruleset([r"a.{2,300}b", r"c.{2,400}d"])
        mapping = map_network(rs.network)
        assert mapping.bank.bv_modules_used == 1
        assert mapping.bank.bv_bits_used == 300 + 400
        assert mapping.bank.bv_waste_bits == 2000 - 700

    def test_oversized_bit_vectors_split_pes(self):
        rs = compile_ruleset([r"a.{2,1500}b", r"c.{2,1400}d"])
        mapping = map_network(rs.network)
        assert mapping.bank.bv_modules_used == 2

    def test_counter_capacity(self):
        # 10 counters exceed one PE's 8 slots -> at least 2 PEs
        rules = [(f"g{i}", rf"[^a]a{{2,{20 + i}}}") for i in range(10)]
        rs = compile_ruleset(rules)
        mapping = map_network(rs.network)
        assert rs.network.counter_count() == 10
        assert mapping.bank.pes_used >= 2


class TestPortGroups:
    def test_fanin_within_group_ok(self):
        compiled = compile_pattern(r"(ab|cd|ef){2,9}x")
        mapping = map_network(compiled.network)
        assert mapping.ok

    def test_excess_fanin_recorded(self):
        # counter whose body has > 8 first STEs violates the port group
        alternatives = "|".join(f"{c}z" for c in "abcdefghij")  # 10 firsts
        compiled = compile_pattern(rf"q({alternatives}){{2,9}}x")
        mapping = map_network(compiled.network)
        if compiled.network.counter_count():
            assert any(v.port == "fst" for v in mapping.violations)


class TestOversizedAtoms:
    def test_split_with_violation_note(self):
        net = Network("big")
        geometry = CamaGeometry()
        ctr = net.add(CounterNode("c", 1, 3, start=StartType.ALL_INPUT))
        first = net.add(STE("s0", CharClass.of_char("a"), start=StartType.ALL_INPUT))
        net.connect("s0", "o", "c", "fst")
        net.connect("s0", "o", "c", "lst")
        prev = "s0"
        for i in range(1, geometry.stes_per_pe + 10):
            ste = net.add(STE(f"s{i}", CharClass.of_char("a")))
            net.connect(prev, "o", f"s{i}", "i")
            net.connect(f"s{i}", "o", "c", "lst")
            prev = f"s{i}"
        mapping = map_network(net)
        assert not mapping.ok
        assert any("split" in v.detail for v in mapping.violations)
        assert set(mapping.placement) == set(net.nodes)


@pytest.fixture(scope="module")
def wide_gap():
    """A gap wider than one PE's 2000-bit bit-vector module."""
    return RulesetMatcher([("r", "a.{2,2500}b")])


class TestWiderThanOnePE:
    def test_compiler_unfolds_the_gap(self, wide_gap):
        # generous bound: a regression here never returns at all
        assert wide_gap.compile_info.seconds < 60
        (compiled,) = wide_gap.ruleset.patterns
        assert list(compiled.decisions.values()) == [Decision.UNFOLD]
        assert wide_gap.resources().bit_vectors == 0
        assert wide_gap.mapping.ok

    @pytest.mark.parametrize("engine", ["stream", "block"])
    def test_reports_equal_python_re(self, wide_gap, engine):
        if engine not in available_engines():
            pytest.skip(f"{engine} backend unavailable")
        # gaps of 1, 4 and 2 bytes, then exactly 2500 and 2501
        data = b"ab axb axxb a" + b"y" * 2500 + b"bb"
        oracle = re.compile(rb"(?s:a.{2,2500}b)")
        starts = [i for i, byte in enumerate(data) if byte == ord("a")]
        ends = sorted(
            {
                end
                for end in range(1, len(data) + 1)
                if data[end - 1] == ord("b")
                and any(oracle.fullmatch(data, s, end) for s in starts if s < end)
            }
        )
        assert ends == [6, 11, len(data) - 1]
        assert wide_gap.scan(data, engine=engine).matches == {"r": ends}

    def test_mapper_refuses_a_wider_segment(self):
        # imported MNRL can hold what the compiler never emits
        net = Network("wide")
        net.add(STE("s", CharClass.of_char("a"), start=StartType.ALL_INPUT))
        net.add(BitVectorNode("v", 2, 2500))
        net.connect("s", "o", "v", "body")
        net.connect("v", "en_body", "s", "i")
        with pytest.raises(BankAllocationError, match="bit vector 'v' needs 2500 bits"):
            map_network(net)
