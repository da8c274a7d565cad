"""Property tests for placement: capacities and co-location always hold,
and the first fit places exactly like the naive one."""

from hypothesis import given, settings, strategies as st

from repro.compiler.mapping import (
    NetworkMapping,
    _atoms,
    _place,
    _place_oversized,
    map_network,
)
from repro.compiler.pipeline import compile_ruleset
from repro.hardware.cama import Bank
from repro.hardware.params import GEOMETRY
from repro.mnrl.network import Network
from repro.mnrl.nodes import BitVectorNode, CounterNode, STE, StartType
from repro.regex.charclass import CharClass
from repro.workloads.synth import module_heavy, snort_like


def _rule(ix: int, kind: str, bound: int, literal_len: int) -> tuple[str, str]:
    literal = "".join(chr(ord("a") + (ix + k) % 26) for k in range(literal_len))
    if kind == "counter":
        return (f"r{ix}", rf"[^z]z{{{2},{bound}}}{literal}")
    if kind == "bitvector":
        return (f"r{ix}", rf"{literal}.{{{2},{bound}}}")
    return (f"r{ix}", literal)


rule_specs = st.lists(
    st.tuples(
        st.sampled_from(["counter", "bitvector", "plain"]),
        st.integers(min_value=3, max_value=900),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=50, deadline=None)
@given(rule_specs)
def test_capacities_and_colocation(specs):
    rules = [_rule(i, kind, bound, length) for i, (kind, bound, length) in enumerate(specs)]
    rs = compile_ruleset(rules)
    mapping = map_network(rs.network)
    geometry = mapping.bank.geometry

    # every node is placed exactly once
    assert set(mapping.placement) == set(rs.network.nodes)

    # physical capacities hold in every PE
    for pe in mapping.bank.pes:
        assert len(pe.stes) <= geometry.stes_per_pe
        assert len(pe.counters) <= geometry.counters_per_pe
        assert pe.bv_bits_used <= geometry.bit_vector_bits_per_pe

    # modules share a PE with every STE wired to their ports (unless
    # the mapper recorded an explicit split violation)
    split = {v.node_id for v in mapping.violations if "split" in v.detail}
    for conn in rs.network.connections:
        dst = rs.network.nodes[conn.target]
        src = rs.network.nodes[conn.source]
        if isinstance(dst, STE) or not isinstance(src, STE):
            continue
        if conn.target in split:
            continue
        assert mapping.pe_of(conn.source) == mapping.pe_of(conn.target)


@settings(max_examples=30, deadline=None)
@given(rule_specs)
def test_occupancy_statistics_consistent(specs):
    rules = [_rule(i, kind, bound, length) for i, (kind, bound, length) in enumerate(specs)]
    rs = compile_ruleset(rules)
    mapping = map_network(rs.network)
    bank = mapping.bank
    assert bank.ste_count == rs.network.ste_count()
    assert bank.counter_count == rs.network.counter_count()
    assert bank.bv_bits_used == rs.network.bit_vector_bits()
    assert bank.cam_arrays_used >= (rs.network.ste_count() + 511) // 512
    assert bank.bv_waste_bits >= 0


def _naive_first_fit(network: Network) -> NetworkMapping:
    """The oracle: first-fit-decreasing that asks every PE in index
    order for every atom, re-summing sizes on each ask."""
    geometry = GEOMETRY
    bank = Bank(geometry=geometry)
    mapping = NetworkMapping(bank=bank)
    atoms = _atoms(network, geometry, mapping)
    for atom in sorted(atoms, key=lambda a: (a.ste_count, a.bv_bits), reverse=True):
        if (
            atom.ste_count > geometry.stes_per_pe
            or len(atom.counters) > geometry.counters_per_pe
            or atom.bv_bits > geometry.bit_vector_bits_per_pe
        ):
            _place_oversized(atom, bank, mapping, geometry)
            continue
        target = None
        for pe in bank.pes:
            if pe.fits(atom.ste_count, len(atom.counters), atom.bv_bits):
                target = pe
                break
        if target is None:
            target = bank.new_pe()
        _place(atom, target, mapping)
    return mapping


def _assert_places_like_naive(network: Network) -> None:
    got = map_network(network)
    want = _naive_first_fit(network)
    assert list(got.placement.items()) == list(want.placement.items())
    assert got.bank.pes_used == want.bank.pes_used
    assert got.violations == want.violations


def _oversized_atom() -> Network:
    """One counter whose lst port is wired to more STEs than a PE holds."""
    net = Network("big")
    net.add(CounterNode("c", 1, 3, start=StartType.ALL_INPUT))
    net.add(STE("s0", CharClass.of_char("a"), start=StartType.ALL_INPUT))
    net.connect("s0", "o", "c", "fst")
    net.connect("s0", "o", "c", "lst")
    for i in range(1, GEOMETRY.stes_per_pe + 10):
        net.add(STE(f"s{i}", CharClass.of_char("a")))
        net.connect(f"s{i - 1}", "o", f"s{i}", "i")
        net.connect(f"s{i}", "o", "c", "lst")
    return net


def _atom_network(specs) -> Network:
    """One placement atom per spec: ``(kind, stes, bits)`` -- a free
    STE, a counter or a bit vector with ``stes`` STEs on its ports."""
    net = Network("atoms")
    for i, (kind, stes, bits) in enumerate(specs):
        names = [f"a{i}s{k}" for k in range(1 if kind == "free" else stes)]
        for name in names:
            net.add(STE(name, CharClass.of_char("a"), start=StartType.ALL_INPUT))
        if kind == "counter":
            net.add(CounterNode(f"a{i}", 1, 3, start=StartType.ALL_INPUT))
            net.connect(names[0], "o", f"a{i}", "fst")
            for name in names:
                net.connect(name, "o", f"a{i}", "lst")
        elif kind == "bv":
            net.add(BitVectorNode(f"a{i}", 1, bits, start=StartType.ALL_INPUT))
            for name in names:
                net.connect(name, "o", f"a{i}", "body")
    return net


#: atom shapes that pack PEs tightly in every dimension (STE slots,
#: counter slots, bit-vector bits), some too large for any PE
atom_specs = st.lists(
    st.tuples(
        st.sampled_from(["free", "counter", "bv"]),
        st.one_of(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=300),
            st.sampled_from([128, 256, 511, 512, 600]),
        ),
        st.one_of(
            st.integers(min_value=1, max_value=1200),
            st.sampled_from([1, 500, 1000, 1999, 2000]),
        ),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(atom_specs)
def test_first_fit_places_like_naive_on_packed_atoms(specs):
    _assert_places_like_naive(_atom_network(specs))


@settings(max_examples=40, deadline=None)
@given(rule_specs, st.booleans())
def test_first_fit_places_like_naive(specs, oversized):
    rules = [_rule(i, kind, bound, length) for i, (kind, bound, length) in enumerate(specs)]
    network = compile_ruleset(rules).network
    if oversized:
        network.merge(_oversized_atom(), prefix="big.")
    _assert_places_like_naive(network)


def test_first_fit_places_like_naive_on_suites():
    for suite in (snort_like(200, seed=7), module_heavy(24)):
        for opt_level in (0, 1):
            _assert_places_like_naive(
                compile_ruleset(suite.patterns(), opt_level=opt_level).network
            )
