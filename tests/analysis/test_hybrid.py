"""Tests for the hybrid analysis driver (Section 3.3)."""

from repro.analysis.exact import analyze_exact
from repro.analysis.hybrid import analyze, analyze_hybrid, analyze_pattern
from repro.analysis.result import Method
from repro.regex.parser import parse
from repro.regex.rewrite import simplify


def search(pattern: str):
    return simplify(parse(pattern).search_ast())


class TestAgreementWithExact:
    PATTERNS = [
        r"[^a]a{4}",
        r"x{2}",
        r"^a{3}b{2,4}",
        r"foo.{3,9}bar",
        r"[^a]a{3}|[^b]b{3}",
        r"(ab){2,5}",
        r"[0-9]{4,8}",
        r"^[^/]/[a-z]{2,6}",
    ]

    def test_verdicts_match_exact(self):
        for pattern in self.PATTERNS:
            ast = search(pattern)
            hybrid = analyze_hybrid(ast)
            exact = analyze_exact(ast)
            assert hybrid.ambiguous == exact.ambiguous, pattern
            per_h = {r.instance: r.treat_as_ambiguous for r in hybrid.instances}
            per_e = {r.instance: r.ambiguous for r in exact.instances}
            assert per_h == per_e, pattern

    def test_hybrid_conclusive(self):
        """Unlike the pure approximation, hybrid verdicts are final."""
        for pattern in self.PATTERNS:
            assert analyze_hybrid(search(pattern)).conclusive, pattern


class TestCostOrdering:
    def test_hybrid_cheaper_on_hard_unambiguous(self):
        ast = search(r"[^a-m][a-m]{40}|[^g-z][g-z]{40}")
        hybrid = analyze_hybrid(ast)
        exact = analyze_exact(ast)
        assert not hybrid.ambiguous and not exact.ambiguous
        assert hybrid.pairs_created < exact.pairs_created / 3

    def test_witness_overhead_small(self):
        """Figure 2's H vs HW columns: witness recording costs little."""
        ast = search(r"pre.{2,30}post")
        plain = analyze_hybrid(ast)
        with_witness = analyze_hybrid(ast, record_witness=True)
        assert with_witness.ambiguous == plain.ambiguous
        assert with_witness.pairs_created <= plain.pairs_created * 2 + 100


class TestDispatch:
    def test_analyze_dispatch(self):
        ast = search(r"a{2,3}")
        assert analyze(ast, "exact").method is Method.EXACT
        assert analyze(ast, "approximate").method is Method.APPROXIMATE
        assert analyze(ast, "hybrid").method is Method.HYBRID
        assert analyze(ast, Method.HYBRID).method is Method.HYBRID

    def test_analyze_pattern_uses_search_semantics(self):
        """Unanchored a{2} is ambiguous (Sigma* prefix); anchored is not."""
        assert analyze_pattern("a{2}").ambiguous
        assert not analyze_pattern("^a{2}").ambiguous

    def test_no_counting_fast_path(self):
        result = analyze_pattern("plainliteral")
        assert not result.has_counting
        assert result.nca is None

    def test_witnesses_surface(self):
        result = analyze_pattern(".*x{2}", method="hybrid", record_witness=True)
        witnesses = result.witnesses()
        assert 0 in witnesses and len(witnesses[0]) >= 2


class TestUnambiguousStateExtraction:
    def test_states_of_ambiguous_instances_excluded(self):
        result = analyze_pattern(r"^a{4}.*b{5}")
        good = result.unambiguous_counter_states()
        nca = result.nca
        first, second = nca.instances
        assert first.body <= good
        assert not (second.body & good)
