"""Tests for the high-level RulesetMatcher facade."""

import pytest

from repro.matching import RulesetMatcher, UNNAMED_REPORT


RULES = [
    ("header", r"\n[^\r\n]{8,40}\n"),
    ("digits", r"[0-9]{6,12}"),
    ("exact", r"abc"),
    ("broken", r"(a)\1"),
]


class TestScan:
    def test_matched_rules(self):
        matcher = RulesetMatcher(RULES)
        result = matcher.scan(b"xx abc yy 123456789 zz")
        assert "exact" in result.matches
        assert "digits" in result.matches
        assert "header" not in result.matches

    def test_match_positions_one_based_ends(self):
        matcher = RulesetMatcher([("r", "abc")])
        result = matcher.scan(b"..abc..abc")
        assert result.matches["r"] == [5, 10]

    def test_str_input(self):
        matcher = RulesetMatcher([("r", "abc")])
        assert matcher.matched_rules("zzabczz") == {"r"}

    def test_energy_estimate_present(self):
        matcher = RulesetMatcher(RULES)
        result = matcher.scan(b"hello world" * 20)
        assert result.energy_nj_per_byte > 0
        assert result.bytes_scanned == 220

    def test_total_matches(self):
        matcher = RulesetMatcher([("r", "a")])
        assert matcher.scan(b"aaa").total_matches() == 3


class TestEngines:
    def test_engines_agree(self):
        matcher = RulesetMatcher(RULES)
        data = b"head\nvalue-of-header-x\n 123456789 abcabc"
        assert matcher.scan(data, engine="stream") == matcher.scan(
            data, engine="reference"
        )

    def test_default_engine_ctor_arg(self):
        matcher = RulesetMatcher([("r", "abc")], engine="reference")
        assert matcher.scan(b"xabc").matches == {"r": [4]}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            RulesetMatcher([("r", "abc")], engine="quantum")
        with pytest.raises(ValueError):
            RulesetMatcher([("r", "abc")]).scan(b"x", engine="quantum")

    def test_scan_stream_matches_scan(self):
        matcher = RulesetMatcher(RULES)
        data = b"head\nvalue-of-header-x\n 123456789 abcabc"
        assert matcher.scan_stream([data[:10], data[10:]]) == matcher.scan(data)

    def test_scan_many(self):
        matcher = RulesetMatcher(RULES)
        streams = [b"abc", b"123456", b"nothing"]
        assert matcher.scan_many(streams) == [matcher.scan(s) for s in streams]

    def test_tables_cached(self):
        matcher = RulesetMatcher([("r", "abc")])
        assert matcher.tables is matcher.tables


class TestReportNaming:
    def test_empty_string_rule_id_preserved(self):
        # the old `rule_id or "?"` fallback silently renamed falsy-but-
        # real ids; "" must survive as its own deterministic key
        matcher = RulesetMatcher([("", "abc")])
        assert matcher.scan(b"xabc").matches == {"": [4]}

    def test_unnamed_sentinel_is_stable(self):
        assert UNNAMED_REPORT == "<unnamed>"


class TestResources:
    def test_summary_fields(self):
        matcher = RulesetMatcher(RULES)
        res = matcher.resources()
        assert res.rules_compiled == 3
        assert res.rules_skipped == 1
        assert res.stes > 0
        assert res.counters >= 1  # the guarded header run
        assert res.bit_vectors >= 1  # the bare digit run
        assert res.area_mm2 > 0

    def test_skipped_reasons(self):
        matcher = RulesetMatcher(RULES)
        assert matcher.skipped[0][0] == "broken"
        assert "unsupported" in matcher.skipped[0][1]

    def test_threshold_changes_footprint(self):
        small = RulesetMatcher(RULES, unfold_threshold=0).resources()
        full = RulesetMatcher(RULES, unfold_threshold=float("inf")).resources()
        assert full.stes > small.stes
        assert full.counters == 0 and full.bit_vectors == 0

    def test_empty_match_rules_flagged(self):
        matcher = RulesetMatcher([("opt", "a*"), ("lit", "b")])
        assert matcher.empty_match_rules() == {"opt"}


class TestEquivalenceAcrossThresholds:
    def test_same_matches_any_threshold(self):
        data = b"head\nvalue-of-header-x\n 123456789 abcabc"
        results = [
            RulesetMatcher(RULES, unfold_threshold=t).scan(data).matches
            for t in (0, 10, float("inf"))
        ]
        assert results[0] == results[1] == results[2]
