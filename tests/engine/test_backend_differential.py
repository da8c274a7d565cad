"""Differential fuzz: every engine, one semantics.

Hypothesis drives random rule subsets x random data x random
chunkings through **every available engine** and asserts identical
distinct report sets and ``ActivityStats.equivalent`` everywhere.  The
reference oracle runs inside the same loop, so any divergence names
the offending scanner directly.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.pipeline import compile_ruleset
from repro.engine.backends import available_engines
from repro.engine.tables import compile_tables
from tests.helpers import scanner_for

#: shapes chosen to exercise every execution path: literal chains,
#: alternation, anchors, nullables, self-loops, true cycles (scalar
#: fallback), counters, and bit vectors (module rescans)
RULE_POOL = [
    ("lit", r"abc"),
    ("start", r"^ab"),
    ("end", r"bc$"),
    ("nullable", r"c*"),
    ("counter", r"[^a]a{3,5}"),
    ("gap", r"b.{2,4}c"),
    ("selfloop", r"xa+b"),
    ("cycle", r"(ab)+c"),
    ("alt", r"(ax|bx|cx)"),
    ("exact", r"^[abc]{4}$"),
]

_COMPILED: dict = {}


def _compiled(network):
    """``(network, tables)``: the oracle runs the first, the scanners
    the second."""
    return network, compile_tables(network)


def _compiled_for(indices: frozenset):
    compiled = _COMPILED.get(indices)
    if compiled is None:
        rules = [RULE_POOL[i] for i in sorted(indices)]
        compiled = _compiled(compile_ruleset(rules).network)
        _COMPILED[indices] = compiled
    return compiled


def _chunkings(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({min(c, len(data)) for c in cuts})
    chunks, prev = [], 0
    for point in points:
        chunks.append(data[prev:point])
        prev = point
    chunks.append(data[prev:])
    return chunks


small_data = st.lists(st.sampled_from(list(b"abcx")), max_size=40).map(bytes)
rule_subsets = st.frozensets(
    st.integers(min_value=0, max_value=len(RULE_POOL) - 1), min_size=1, max_size=4
)


def _assert_backends_agree(compiled, chunks, context):
    """Feed ``chunks`` through every available engine; reports must be
    identical and stats equivalent everywhere."""
    outcomes = {}
    for name in available_engines():
        scanner = scanner_for(name, *compiled)
        for chunk in chunks:
            scanner.feed(chunk)
        scanner.finish()
        outcomes[name] = (scanner.reports, scanner.stats)

    assert "stream" in outcomes and "reference" in outcomes
    want_reports, want_stats = outcomes["reference"]
    for name, (reports, stats) in outcomes.items():
        assert reports == want_reports, (name,) + context
        assert stats.equivalent(want_stats), (name,) + context


@given(
    indices=rule_subsets,
    data=small_data,
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_all_backends_report_identically(indices, data, cuts):
    chunks = _chunkings(data, cuts)
    _assert_backends_agree(_compiled_for(indices), chunks, (sorted(indices), data, cuts))


# -- module-heavy generator -------------------------------------------------
#
# Random `{n,m}` bounded repeats lower to counter and bit-vector
# modules (unfold_threshold=0 in compile_ruleset keeps them as
# modules); the generator covers every wiring shape the block scanner
# distinguishes: absorbable one-STE loops, ALL_INPUT gaps, nested
# counters, multi-STE bodies (the non-vectorizable fallback), and
# plain STE context around them.


@st.composite
def _module_rule(draw, tag):
    lo = draw(st.integers(min_value=1, max_value=4))
    # hi > lo >= 1, or an exact repeat with lo >= 2: `a{1,1}` would
    # simplify to a plain STE and leave the tables module-free
    hi = lo + draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()) and lo >= 2:
        hi = lo
    shape = draw(
        st.sampled_from(
            [
                "{head}a{{{lo},{hi}}}",  # counter run (absorbable)
                "b.{{{lo},{hi}}}c",  # bit-vector gap
                ".{{{lo},{hi}}}x",  # ALL_INPUT bit vector
                "[ab]{{{lo},{hi}}}x",  # class-run counter
                "(a{{{lo},{hi}}})+b",  # nested counting
                "x(ab){{{lo},{hi}}}c",  # multi-STE body (fallback)
                "{head}a{{{lo},{hi}}}b{{{lo},{hi}}}",  # chained modules
            ]
        )
    )
    head = draw(st.sampled_from(["x", "[^a]", "c"]))
    return (tag, shape.format(head=head, lo=lo, hi=hi))


module_rule_lists = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(*[_module_rule(tag=f"m{i}") for i in range(k)])
)

_MODULE_COMPILED: dict = {}


def _module_compiled_for(rules: tuple):
    compiled = _MODULE_COMPILED.get(rules)
    if compiled is None:
        compiled = _compiled(compile_ruleset(list(rules)).network)
        _MODULE_COMPILED[rules] = compiled
    return compiled


@given(
    rules=module_rule_lists,
    data=st.lists(st.sampled_from(list(b"aabbcx.")), max_size=60).map(bytes),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=5),
)
@settings(max_examples=80, deadline=None)
def test_all_backends_agree_on_module_heavy_rules(rules, data, cuts):
    compiled = _module_compiled_for(rules)
    assert compiled[1].n_modules > 0, rules
    chunks = _chunkings(data, cuts)
    _assert_backends_agree(compiled, chunks, (rules, data, cuts))


@given(data=small_data)
@settings(max_examples=30, deadline=None)
def test_byte_at_a_time_matches_one_shot_on_every_backend(data):
    compiled = _compiled_for(frozenset([0, 4, 6, 9]))
    for name in available_engines():
        drip = scanner_for(name, *compiled)
        for b in data:
            drip.feed(bytes([b]))
        one = scanner_for(name, *compiled)
        one.feed(data)
        drip.finish()
        one.finish()
        assert drip.reports == one.reports, name
        assert drip.stats.equivalent(one.stats), name
