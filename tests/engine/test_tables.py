"""Equivalence of the table-driven engine against the reference simulator.

The engine's contract (docs/ARCHITECTURE.md): for every network the
compiler can emit, the distinct ``(position, report_id)`` report sets
AND the full ``ActivityStats`` must match ``NetworkSimulator`` exactly.
"""

import pytest

from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.scanner import StreamScanner, scan_bytes
from repro.engine.tables import compile_tables
from repro.hardware.simulator import NetworkSimulator
from repro.workloads.inputs import plant_matches, stream_for_style
from repro.workloads.synth import (
    clamav_like,
    protomata_like,
    snort_like,
    spamassassin_like,
    suricata_like,
)

#: pattern shapes covering every node type and start behaviour:
#: plain literals, alternation, anchors, nullable, counters (guarded
#: runs), bit vectors (wildcard gaps), nested repetition, classes.
PATTERNS = [
    r"abc",
    r"(cat|dog|bird)",
    r"^GET /[a-z]{1,8}",
    r"end$",
    r"^whole$",
    r"a*b?",
    r"[^\r\n]\r?\n",
    r"x[0-9]{3,6}y",
    r"\n[^\r\n]{4,12}\n",
    r".{2,5}stop",
    r"a.{3,9}b",
    r"(ab){2,4}c",
    r"([a-c]{1,2}z){1,3}",
    r"a{4}",
    r"[0-9a-f]{8,16}",
]

INPUTS = [
    b"",
    b"a",
    b"abc",
    b"whole",
    b"GET /index HTTP\r\nabc x12345y end",
    b"aaaaaaaabbbbbbb",
    b"\nline-one\n\nline-two-is-long\n",
    b"zzzstopzz abab ababc acz bzbz",
    b"deadbeefcafebabe 0123456789",
    bytes(range(256)),
    b"a" * 40 + b"b" + b"a" * 40,
]


def _reference(network, data):
    sim = NetworkSimulator(network)
    sim.run(data)
    return sim.distinct_reports(), sim.stats


@pytest.mark.parametrize("pattern", PATTERNS)
def test_single_pattern_equivalence(pattern):
    compiled = compile_pattern(pattern, report_id="p")
    tables = compile_tables(compiled.network)
    scanner = StreamScanner(tables)
    for data in INPUTS:
        want_reports, want_stats = _reference(compiled.network, data)
        scanner.reset()
        scanner.feed(data)
        scanner.finish()
        assert scanner.reports == want_reports, (pattern, data)
        assert scanner.stats.equivalent(want_stats), (pattern, data)


@pytest.mark.parametrize("threshold", [0, 3, float("inf")])
def test_whole_ruleset_equivalence_across_thresholds(threshold):
    ruleset = compile_ruleset(
        [("r%d" % i, p) for i, p in enumerate(PATTERNS)],
        unfold_threshold=threshold,
    )
    data = b" ".join(INPUTS)
    want_reports, want_stats = _reference(ruleset.network, data)
    scanner = scan_bytes(ruleset.network, data)
    assert scanner.reports == want_reports
    assert scanner.stats.equivalent(want_stats)


@pytest.mark.parametrize(
    "factory, total",
    [
        (snort_like, 14),
        (suricata_like, 12),
        (protomata_like, 10),
        (spamassassin_like, 12),
        (clamav_like, 10),
    ],
)
def test_synthetic_suite_equivalence(factory, total):
    """Report- and stats-equivalence across the synthetic workload
    suites, on matching traffic with planted true matches."""
    suite = factory(total=total, seed=11)
    ruleset = compile_ruleset(suite.patterns())
    background = stream_for_style(suite.input_style, 4000, seed=2)
    data = plant_matches(background, [r.pattern for r in suite.rules], seed=3)
    want_reports, want_stats = _reference(ruleset.network, data)
    scanner = scan_bytes(ruleset.network, data)
    assert scanner.reports == want_reports
    assert scanner.stats.equivalent(want_stats)
    assert want_stats.reports > 0  # planted matches actually fired


def test_tables_are_picklable():
    import pickle

    compiled = compile_pattern(r"a[^b]{2,6}b(c|d){1,3}$", report_id="p")
    tables = compile_tables(compiled.network)
    clone = pickle.loads(pickle.dumps(tables))
    data = b"axxxbccd axyzzzbd"
    assert scan_bytes(clone, data).reports == scan_bytes(tables, data).reports


def test_prepared_travels_with_the_tables_but_is_not_compared():
    import pickle

    from repro.engine.block import BlockScanner, numpy_or_none

    compiled = compile_pattern(r"x[^a]a{3,9}b", report_id="p")
    tables = compile_tables(compiled.network)
    bare = pickle.loads(pickle.dumps(tables))
    if numpy_or_none() is not None:
        BlockScanner.can_sweep(tables)  # the block scanner fills its slot
    clone = pickle.loads(pickle.dumps(tables))
    assert clone == tables == bare  # derived state takes no part
    assert clone.prepared.keys() == tables.prepared.keys()
    assert "prepared" not in repr(tables)
    if "block" in tables.prepared:  # NumPy leg: the clone carries the program
        kept, sent = tables.prepared["block"], clone.prepared["block"]
        assert sent is not kept
        assert sent.sweep_ok and sent.steps == kept.steps
        assert sent.row_of == kept.row_of and sent.preds == kept.preds


def test_match_masks_cover_symbol_sets():
    compiled = compile_pattern(r"[a-f]{2,4}[^a-f]", report_id="p")
    tables = compile_tables(compiled.network)
    # the alphabet collapses to the classes the STEs distinguish:
    # [a-f] vs [^a-f] -> 2 classes, indexed through the 256-byte map
    assert len(tables.byte_class) == 256
    assert tables.n_classes == 2
    assert len(tables.match_masks) == tables.n_classes
    for i, ste in enumerate(compiled.network.stes()):
        assert ste.id == tables.ste_ids[i]
        for byte in range(256):
            expected = byte in ste.symbol_set
            assert bool(tables.match_mask_for(byte) >> i & 1) == expected


def test_alphabet_class_map_is_consistent():
    """Bytes in one class are matched by exactly the same STEs."""
    compiled = compile_pattern(r"(GET|POST) /[a-z0-9]{1,12}", report_id="p")
    tables = compile_tables(compiled.network)
    assert 1 <= tables.n_classes <= 256
    signatures = {}
    for byte in range(256):
        signatures.setdefault(tables.byte_class[byte], set()).add(
            tables.match_mask_for(byte)
        )
    # every class maps to exactly one mask, and distinct classes to
    # distinct masks (the partition is as coarse as possible)
    assert all(len(masks) == 1 for masks in signatures.values())
    distinct = {masks.pop() for masks in signatures.values()}
    assert len(distinct) == tables.n_classes


def test_feed_after_finish_raises():
    compiled = compile_pattern("ab", report_id="p")
    scanner = StreamScanner(compiled.network)
    scanner.feed(b"ab")
    scanner.finish()
    with pytest.raises(RuntimeError):
        scanner.feed(b"ab")
    scanner.reset()
    scanner.feed(b"xab")
    scanner.finish()
    assert scanner.reports == {(3, "p")}
