"""The optimisation pass pipeline (repro.compiler.passes).

Contract under test: at every opt level the optimized network produces
exactly the same distinct ``(position, report_id)`` report set as the
unoptimized network, on every input -- while -O1 demonstrably shrinks
shared-prefix rulesets.  ``-O0`` additionally keeps byte-exact
``ActivityStats`` (the Table 2 experiments depend on it).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.passes import (
    _SELF,
    compute_alphabet_classes,
    eliminate_dead_nodes,
    run_passes,
    share_prefixes,
)
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.scanner import scan_bytes
from repro.hardware.simulator import NetworkSimulator
from repro.matching import RulesetMatcher
from repro.mnrl.network import Network
from repro.mnrl.nodes import STE, StartType
from repro.regex.charclass import CharClass
from repro.workloads.inputs import plant_matches, stream_for_style
from repro.workloads.synth import (
    clamav_like,
    module_heavy,
    protomata_like,
    snort_like,
    spamassassin_like,
    suricata_like,
)


class TestAlphabetClasses:
    def test_two_class_partition(self):
        compiled = compile_pattern(r"[a-f]+", report_id="p")
        classes = compute_alphabet_classes(compiled.network)
        assert classes.n_classes == 2
        assert len(classes.byte_to_class) == 256
        assert len(classes.representatives) == 2
        # all of [a-f] share a class; everything else shares the other
        inside = {classes.byte_to_class[b] for b in b"abcdef"}
        outside = {classes.byte_to_class[b] for b in b"xyz01"}
        assert len(inside) == 1 and len(outside) == 1 and inside != outside

    def test_literal_chain_distinguishes_each_byte(self):
        compiled = compile_pattern(r"abc", report_id="p")
        classes = compute_alphabet_classes(compiled.network)
        # {a}, {b}, {c}, rest
        assert classes.n_classes == 4

    def test_empty_network_collapses_to_one_class(self):
        assert compute_alphabet_classes(Network("empty")).n_classes == 1

    def test_representatives_map_back(self):
        compiled = compile_pattern(r"(GET|PUT) [0-9]{2,8}", report_id="p")
        classes = compute_alphabet_classes(compiled.network)
        for index, byte in enumerate(classes.representatives):
            assert classes.byte_to_class[byte] == index


class TestSharePrefixes:
    def test_common_prefix_folds_across_rules(self):
        rs = compile_ruleset([("r1", "abcX"), ("r2", "abcY")])
        before = rs.network.ste_count()
        merged = share_prefixes(rs.network)
        assert merged == 3  # the shared a, b, c chain
        assert rs.network.ste_count() == before - 3
        rs.network.validate()
        assert scan_bytes(rs.network, b"zabcX abcY").reports == {
            (5, "r1"),
            (10, "r2"),
        }

    def test_reporting_tails_with_distinct_ids_survive(self):
        rs = compile_ruleset([("r1", "ab"), ("r2", "ab")])
        merged = share_prefixes(rs.network)
        assert merged == 1  # 'a' folds; the reporting 'b's must not
        reports = scan_bytes(rs.network, b"xab").reports
        assert reports == {(3, "r1"), (3, "r2")}

    def test_anchored_and_unanchored_prefixes_stay_apart(self):
        rs = compile_ruleset([("r1", "abX"), ("r2", "^abY")])
        share_prefixes(rs.network)
        data = b"zzabX abY"
        assert scan_bytes(rs.network, data).reports == {(5, "r1")}
        assert scan_bytes(rs.network, b"abY zabX").reports == {
            (3, "r2"),
            (8, "r1"),
        }

    def test_self_loops_fold(self):
        rs = compile_ruleset([("r1", "^a+X"), ("r2", "^a+Y")])
        before = rs.network.ste_count()
        merged = share_prefixes(rs.network)
        assert merged >= 1
        assert rs.network.ste_count() < before
        assert scan_bytes(rs.network, b"aaaX").reports == {(4, "r1")}
        assert scan_bytes(rs.network, b"aY").reports == {(2, "r2")}


def _fixpoint_share_prefixes(network: Network) -> int:
    """The oracle for :func:`share_prefixes`: the whole-network fixpoint
    it replaced.  Every round rebuilds the canonical incoming-signal
    sets over all connections, groups all surviving STEs by key and
    folds each group into its member earliest in node order, until a
    round merges nothing."""
    order = {node_id: i for i, node_id in enumerate(network.nodes)}
    canon: dict[str, str] = {}

    def resolve(node_id: str) -> str:
        while node_id in canon:
            node_id = canon[node_id]
        return node_id

    merged = 0
    while True:
        incoming: dict[str, set[tuple[str, str]]] = {}
        for conn in network.connections:
            target = resolve(conn.target)
            if not isinstance(network.nodes[target], STE):
                continue
            source = resolve(conn.source)
            incoming.setdefault(target, set()).add(
                (_SELF if source == target else source, conn.source_port)
            )
        groups: dict[tuple, list[str]] = {}
        for ste in network.stes():
            if resolve(ste.id) != ste.id:
                continue  # already folded away this round
            key = (
                ste.symbol_set.mask,
                ste.start,
                ste.report,
                ste.report_id,
                frozenset(incoming.get(ste.id, frozenset())),
            )
            groups.setdefault(key, []).append(ste.id)
        changed = False
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort(key=order.__getitem__)
            keep = members[0]
            for drop in members[1:]:
                canon[drop] = keep
                merged += 1
            changed = True
        if not changed:
            break
    if canon:
        network.merge_nodes({drop: resolve(drop) for drop in canon})
    return merged


def _shuffled(network: Network, seed: int) -> Network:
    """``network`` with its nodes and connections in a random order, so
    an STE can come before the sources it is keyed by."""
    rng = random.Random(seed)
    nodes = list(network.nodes.values())
    connections = list(network.connections)
    rng.shuffle(nodes)
    rng.shuffle(connections)
    out = Network(network.id)
    for node in nodes:
        out.add(node)
    for conn in connections:
        out.connect(conn.source, conn.source_port, conn.target, conn.target_port)
    return out


def _assert_shares_like_fixpoint(rules, shuffle=None, **options) -> int:
    """The worklist and the fixpoint leave the identical network: same
    node order, same connection list, same merged count."""
    fast = compile_ruleset(rules, **options).network
    slow = compile_ruleset(rules, **options).network
    if shuffle is not None:
        fast, slow = _shuffled(fast, shuffle), _shuffled(slow, shuffle)
    eliminate_dead_nodes(fast)
    eliminate_dead_nodes(slow)
    merged = share_prefixes(fast)
    assert merged == _fixpoint_share_prefixes(slow)
    assert list(fast.nodes) == list(slow.nodes)
    assert fast.connections == slow.connections
    return merged


class TestWorklistMatchesFixpoint:
    @pytest.mark.parametrize(
        "factory, total",
        [
            (snort_like, 120),
            (suricata_like, 120),
            (protomata_like, 80),
            (spamassassin_like, 120),
            (clamav_like, 120),
            (module_heavy, 24),
        ],
    )
    def test_synthetic_suites_unfold_threshold_zero(self, factory, total):
        rules = factory(total=total, seed=29).patterns()
        assert _assert_shares_like_fixpoint(rules, unfold_threshold=0) > 0
        # out of node order, survivors and re-keying both matter
        _assert_shares_like_fixpoint(rules, shuffle=total, unfold_threshold=0)

    def test_snort_like_fully_unfolded(self):
        rules = snort_like(total=40).patterns()
        merged = _assert_shares_like_fixpoint(rules, unfold_threshold=float("inf"))
        assert merged > 0

    @given(
        rules=st.lists(
            st.tuples(
                st.text("abc", min_size=1, max_size=4),
                st.sampled_from(
                    ["", "+", "x", "$", "[^a]a{2,4}", ".{2,5}y", "(b|cd)z", "c*"]
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        ),
        threshold=st.sampled_from([0, float("inf")]),
        shuffle=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_random_mixed_rulesets(self, rules, threshold, shuffle):
        patterns = [
            (f"r{i}", ("^" if anchored else "") + head + tail)
            for i, (head, tail, anchored) in enumerate(rules)
        ]
        _assert_shares_like_fixpoint(
            patterns, shuffle=shuffle, unfold_threshold=threshold
        )


class TestDeadNodeElimination:
    def _ste(self, node_id, pattern_bytes, **kwargs):
        return STE(node_id, CharClass.of_bytes(pattern_bytes), **kwargs)

    def test_unreachable_ste_removed(self):
        network = Network("n")
        network.add(
            self._ste("live", b"a", start=StartType.ALL_INPUT, report=True)
        )
        network.add(self._ste("orphan", b"b"))  # no start, no inputs
        assert eliminate_dead_nodes(network) == 1
        assert set(network.nodes) == {"live"}

    def test_unproductive_chain_removed(self):
        network = Network("n")
        network.add(
            self._ste("a", b"a", start=StartType.ALL_INPUT, report=True)
        )
        network.add(self._ste("b", b"b", start=StartType.ALL_INPUT))
        network.add(self._ste("c", b"c"))
        network.connect("b", "o", "c", "i")  # b -> c reaches no report
        assert eliminate_dead_nodes(network) == 2
        assert set(network.nodes) == {"a"}

    def test_empty_class_ste_is_dead(self):
        network = Network("n")
        network.add(
            self._ste("start", b"a", start=StartType.ALL_INPUT)
        )
        network.add(STE("never", CharClass.empty(), report=True))
        network.add(self._ste("tail", b"b", report=True))
        network.connect("start", "o", "never", "i")
        network.connect("start", "o", "tail", "i")
        eliminate_dead_nodes(network)
        assert set(network.nodes) == {"start", "tail"}

    def test_lo_zero_counter_fires_on_lst_alone(self):
        # regression: a lo=0 counter satisfies lo <= count <= hi with
        # no fst signal ever arriving, so it must survive even when its
        # only fst driver is dead -- and the dead driver must be kept
        # too, or Network.validate() would reject the missing wiring
        network = Network("n")
        network.add(STE("deadfst", CharClass.empty()))
        network.add(
            self._ste("livelst", b"x", start=StartType.ALL_INPUT)
        )
        from repro.mnrl.nodes import CounterNode

        network.add(
            CounterNode(
                "c", 0, 3, start=StartType.ALL_INPUT, report=True, report_id="r"
            )
        )
        network.connect("deadfst", "o", "c", "fst")
        network.connect("livelst", "o", "c", "lst")
        sim = NetworkSimulator(network)
        sim.run(b"x")
        want = sim.distinct_reports()
        assert want == {(1, "r")}
        eliminate_dead_nodes(network)
        network.validate()
        assert scan_bytes(network, b"x").reports == want

    def test_compiled_networks_have_no_dead_nodes(self):
        # sanity: the emitter does not normally produce garbage
        rs = compile_ruleset([("r1", "ab{2,9}c"), ("r2", "x.{3,7}y$")])
        assert eliminate_dead_nodes(rs.network) == 0


SUITES = [
    (snort_like, 12),
    (suricata_like, 12),
    (protomata_like, 10),
    (spamassassin_like, 12),
    (clamav_like, 8),
]


@pytest.mark.parametrize("factory, total", SUITES)
def test_synthetic_suite_report_equivalence_across_opt_levels(factory, total):
    """O0 and O1 agree on every report over matching traffic, and the
    table engine agrees with the reference simulator on the optimized
    network."""
    suite = factory(total=total, seed=23)
    rules = suite.patterns()
    rs0 = compile_ruleset(rules)
    rs1 = compile_ruleset(rules, opt_level=1)
    rs1.network.validate()
    background = stream_for_style(suite.input_style, 3000, seed=4)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=5)
    want = scan_bytes(rs0.network, data).reports
    got = scan_bytes(rs1.network, data).reports
    assert got == want
    sim = NetworkSimulator(rs1.network)
    sim.run(data)
    assert sim.distinct_reports() == want


def test_opt0_keeps_activity_stats_byte_exact():
    rules = [("r1", "ab{2,6}c"), ("r2", "ab{2,6}d"), ("r3", "x.{2,9}y")]
    data = b"zabbbc abbd xqqqy" * 4
    rs_plain = compile_ruleset(rules)
    rs_o0 = compile_ruleset(rules, opt_level=0)
    assert rs_o0.optimization is None
    plain = scan_bytes(rs_plain.network, data)
    o0 = scan_bytes(rs_o0.network, data)
    assert o0.reports == plain.reports
    assert o0.stats == plain.stats  # field-for-field, not just equivalent


def test_optimization_report_counts():
    rs = compile_ruleset([("r1", "abcdX"), ("r2", "abcdY")], opt_level=1)
    report = rs.optimization
    assert report is not None
    assert report.merged_stes == 4
    assert report.stes_before - report.stes_after == 4
    assert report.nodes_after == rs.network.node_count()
    assert 1 <= report.alphabet_classes <= 256
    assert "STEs merged" in report.describe()


def test_negative_opt_level_rejected():
    with pytest.raises(ValueError):
        compile_ruleset([("r", "ab")], opt_level=-1)


# ----------------------------------------------------------------------
# Property tests: report-set equivalence across random inputs/chunkings
# ----------------------------------------------------------------------
#: rule pool mixing shared prefixes, anchors, counters, bit vectors,
#: self-loops, and alternation -- the shapes the passes rewrite
RULE_POOL = [
    ("lit1", r"abc"),
    ("lit2", r"abd"),
    ("lit3", r"abcd"),
    ("anch1", r"^ab"),
    ("anch2", r"^ac"),
    ("end1", r"bc$"),
    ("loop1", r"a+bc"),
    ("loop2", r"a+bd"),
    ("ctr1", r"[^a]a{2,5}b"),
    ("ctr2", r"[^a]a{2,5}c"),
    ("bv1", r"b.{2,4}c"),
    ("alt1", r"(ab|cd)x"),
    ("nul1", r"c*d"),
]

_MATCHERS: dict = {}


def _matchers():
    if not _MATCHERS:
        _MATCHERS[0] = RulesetMatcher(RULE_POOL, opt_level=0)
        _MATCHERS[1] = RulesetMatcher(RULE_POOL, opt_level=1)
        summary = _MATCHERS[1].resources()
        assert summary.merged_stes > 0  # the pool is built to share
    return _MATCHERS[0], _MATCHERS[1]


@given(data=st.lists(st.sampled_from(list(b"abcdx")), max_size=48).map(bytes))
@settings(max_examples=80, deadline=None)
def test_property_optimized_reports_equal_unoptimized(data):
    m0, m1 = _matchers()
    assert m1.scan(data) == m0.scan(data)


@given(
    data=st.lists(st.sampled_from(list(b"abcdx")), max_size=48).map(bytes),
    cuts=st.lists(st.integers(min_value=0, max_value=48), max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_property_optimized_streaming_equals_buffer(data, cuts):
    _, m1 = _matchers()
    points = sorted({min(c, len(data)) for c in cuts})
    chunks, prev = [], 0
    for point in points:
        chunks.append(data[prev:point])
        prev = point
    chunks.append(data[prev:])
    assert m1.scan_stream(chunks) == m1.scan(data)


@given(
    subset=st.lists(
        st.sampled_from(range(len(RULE_POOL))),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=20, deadline=None)
def test_property_rule_subsets_stay_equivalent(subset):
    """Optimisation of any rule subset preserves reports on a probe
    stream exercising all pool alphabets."""
    key = tuple(sorted(subset))
    cache = _MATCHERS.setdefault("subsets", {})
    if key not in cache:
        rules = [RULE_POOL[i] for i in key]
        cache[key] = (
            compile_ruleset(rules),
            compile_ruleset(rules, opt_level=1),
        )
    rs0, rs1 = cache[key]
    probe = b"abc abd abcd ac xaaaab baaac b12c abx cdx cccd bc"
    assert (
        scan_bytes(rs1.network, probe).reports
        == scan_bytes(rs0.network, probe).reports
    )
