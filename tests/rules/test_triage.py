"""Triage + loader: every rule classified, origins threaded, compile
skips folded back in; the >=2000-rule acceptance gate lives here."""

import os

import pytest

from repro.matching import RulesetMatcher
from repro.rules import load_rules, load_rules_text
from repro.rules.translate import REASONS
from repro.rules.triage import STATUSES
from repro.workloads.snort_rules import CATEGORY_MIX, corpus_text, snort_corpus

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "local.rules")


class TestFixtureCorpus:
    def test_all_classified(self):
        report = load_rules(FIXTURE).report
        assert report.total == 16
        assert sum(report.counts.values()) == report.total
        assert all(rule.status in STATUSES for rule in report.rules)

    def test_expected_counts(self):
        counts = load_rules(FIXTURE).report.counts
        assert counts == {"compiled": 3, "rewritten": 6, "rejected": 7}

    def test_rejections_carry_documented_reason_and_origin(self):
        for rule in load_rules(FIXTURE).report.rejected:
            assert rule.reason in REASONS
            assert rule.origin is not None
            file, line = rule.origin.rsplit(":", 1)
            assert file == "local.rules" and line.isdigit()

    def test_fixture_scans_known_payload(self):
        loaded = load_rules(FIXTURE)
        matcher, report = loaded.compile()
        result = matcher.scan(b"xxGET /admin HTTP/1.1\r\nuser-agent: x")
        assert "sid:1000001" in result.matches  # plain literal
        assert "sid:1000003" in result.matches  # nocase'd User-Agent
        assert sum(report.counts.values()) == report.total

    def test_accepted_rules_are_sourced_triples(self):
        for rule_id, pattern, origin in load_rules(FIXTURE).rules:
            assert rule_id.startswith("sid:")
            assert isinstance(pattern, str) and pattern
            assert origin.startswith("local.rules:")


class TestSkipReasonOrigins:
    """Satellite: compile-level skip reasons carry file:line."""

    def test_compile_skip_reason_has_origin(self):
        # the translator lets `(ab)+c` through; make a pattern the
        # compiler itself rejects via a crafted sourced rule
        matcher = RulesetMatcher([("r1", "a(?=b)", "local.rules:7")])
        assert matcher.skipped == [
            ("r1", "unsupported: lookahead group (local.rules:7)")
        ]

    def test_duplicate_skip_reason_has_origin(self):
        matcher = RulesetMatcher(
            [("r1", "abc", "a.rules:1"), ("r1", "xyz", "b.rules:9")]
        )
        (rule_id, reason), = matcher.skipped
        assert rule_id == "r1" and reason.endswith("(b.rules:9)")

    def test_originless_rules_keep_plain_reasons(self):
        matcher = RulesetMatcher([("r1", "a(?=b)")])
        assert matcher.skipped == [("r1", "unsupported: lookahead group")]

    def test_fold_compile_skips_into_triage(self):
        loaded = load_rules_text(
            'alert tcp any any -> any any (content:"ok"; sid:1;)\n'
        )
        report = loaded.report.with_compile_skips(
            [("sid:1", "unsupported: whatever (<rules>:1)")]
        )
        assert report.counts["rejected"] == 1
        rule = report.rules[0]
        assert rule.reason == "compile-skipped"
        assert "<rules>:1" in rule.detail


class TestLoader:
    def test_duplicate_sids_across_files(self, tmp_path):
        a = tmp_path / "a.rules"
        b = tmp_path / "b.rules"
        a.write_text('alert tcp any any -> any any (content:"x"; sid:5;)\n')
        b.write_text('alert tcp any any -> any any (content:"y"; sid:5;)\n')
        report = load_rules([str(a), str(b)]).report
        assert report.counts == {"compiled": 1, "rewritten": 0, "rejected": 1}
        assert report.rejected[0].reason == "duplicate-id"

    def test_sidless_rules_use_file_line_ids(self):
        loaded = load_rules_text(
            'alert tcp any any -> any any (content:"x";)\n', file="x.rules"
        )
        assert loaded.rules[0][0] == "x.rules:1"

    def test_cache_round_trip(self, tmp_path):
        loaded = load_rules(FIXTURE)
        cold, _ = loaded.compile(cache_dir=str(tmp_path))
        warm, report = loaded.compile(cache_dir=str(tmp_path))
        assert not cold.compile_info.cache_hit
        assert warm.compile_info.cache_hit
        assert sum(report.counts.values()) == report.total
        data = b"payload |deadbeef| GET /admin"
        assert cold.scan(data).matches == warm.scan(data).matches

    def test_triage_is_deferred_to_first_access(self, tmp_path):
        missing = str(tmp_path / "missing.rules")
        with pytest.raises(OSError):
            load_rules(missing)  # files are still opened eagerly
        loaded = load_rules(FIXTURE)
        assert loaded._report is None
        assert loaded.report is loaded.report  # computed once
        assert loaded.rules == load_rules(FIXTURE).report.patterns()

    def test_triage_entry_is_keyed_by_text_alone(self, tmp_path):
        cache_dir = str(tmp_path)
        text = open(FIXTURE).read()

        def compile_(text, **options):
            matcher, report = load_rules_text(text, file=FIXTURE).compile(
                cache_dir=cache_dir, **options
            )
            return matcher.compile_info, report

        cold, want = compile_(text)
        assert not cold.cache_hit and "triage" in cold.phases
        assert len(os.listdir(cache_dir)) == 2  # ruleset-* and triage-*
        warm, report = compile_(text)
        assert warm.cache_hit and set(warm.phases) == {"load"}
        assert report == want  # the stored triage is the derived one
        # only a compile option changed: the triage is a hit, the ruleset not
        other, report = compile_(text, opt_level=1)
        assert not other.cache_hit
        assert "triage" not in other.phases and "compile" in other.phases
        assert report == want
        assert len(os.listdir(cache_dir)) == 3
        # one byte of rule text changed: both layers miss
        changed, _ = compile_(text.replace("GET /admin", "GET /bdmin"))
        assert not changed.cache_hit and "triage" in changed.phases
        assert len(os.listdir(cache_dir)) == 5
        # the label is part of every origin, so part of the key
        moved, report = load_rules_text(text, file="other.rules").compile(
            cache_dir=cache_dir
        )
        assert "triage" in moved.compile_info.phases
        assert report.rules[0].origin.startswith("other.rules:")

    def test_report_read_before_compile_skips_the_triage_entry(self, tmp_path):
        loaded = load_rules(FIXTURE)
        want = loaded.report
        matcher, _ = loaded.compile(cache_dir=str(tmp_path))
        assert loaded.report is want
        assert [n[:7] for n in os.listdir(str(tmp_path))] == ["ruleset"]
        assert "triage" not in matcher.compile_info.phases


class TestSyntheticCorpusAtScale:
    """Acceptance: >=2000 synthetic rules, zero unclassified, compiling
    through the persistent cache."""

    def test_corpus_is_deterministic(self):
        assert snort_corpus(total=50, seed=7) == snort_corpus(total=50, seed=7)
        assert snort_corpus(total=50, seed=7) != snort_corpus(total=50, seed=8)

    def test_category_mix_sums_to_one(self):
        assert sum(CATEGORY_MIX.values()) == pytest.approx(1.0)

    def test_2000_rules_fully_triaged(self):
        text = corpus_text(total=2000)
        report = load_rules_text(text, file="synthetic.rules").report
        counts = report.counts
        assert report.total == 2000
        assert sum(counts.values()) == 2000  # zero unclassified
        # the intentional reject slice (10%) and only it is rejected
        assert counts["rejected"] == 200
        assert set(report.reasons()) == {
            "negated-content", "pcre-backreference",
            "pcre-lookaround", "unsupported-option",
        }
        for rule in report.rules:
            assert rule.status in STATUSES
            if rule.status == "rejected":
                assert rule.reason in REASONS

    def test_2000_rules_compile_through_cache(self, tmp_path):
        loaded = load_rules_text(corpus_text(total=2000), file="synthetic.rules")
        cold, report = loaded.compile(cache_dir=str(tmp_path), opt_level=1)
        assert not cold.compile_info.cache_hit
        assert sum(report.counts.values()) == report.total == 2000
        assert len(report.accepted) + len(report.rejected) == 2000
        warm, _ = loaded.compile(cache_dir=str(tmp_path), opt_level=1)
        assert warm.compile_info.cache_hit
