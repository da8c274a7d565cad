"""Satellite: synthetic-suite rules and parsed Snort rules mix in one
ruleset and scan identically on every engine.

Follows the differential pattern from
``tests/engine/test_backend_differential.py``: compile once, feed the
same data through every available engine, require identical reports
and equivalent stats.
"""

import os

import pytest

from repro.compiler.pipeline import compile_ruleset
from repro.engine.backends import available_engines
from repro.engine.tables import compile_tables
from repro.matching import RulesetMatcher
from repro.rules import load_rules
from repro.workloads.synth import snort_like
from tests.helpers import scanner_for

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "local.rules")


def _mixed_ruleset():
    """A handful of suite pairs + the parsed fixture's sourced triples."""
    suite = snort_like(total=40, seed=3)
    synthetic = [
        (f"suite:{rule.rule_id}", rule.pattern)
        for rule in suite.rules
        if rule.category in ("plain", "count-unambiguous")
    ][:8]
    parsed = load_rules(FIXTURE).rules
    return synthetic + list(parsed)


PAYLOADS = [
    b"",
    b"xxGET /admin HTTP/1.1\r\nuser-agent: probe",
    b"pad \xde\xad\xbe\xef Host: evil tail",
    b"MAIL FROM a evil.example",
    bytes(range(256)),
    b"abcx" * 24,
]


def _scan_all_backends(network, data):
    tables = compile_tables(network)
    outcomes = {}
    for name in available_engines():
        scanner = scanner_for(name, network, tables)
        scanner.feed(data)
        scanner.finish()
        outcomes[name] = (scanner.reports, scanner.stats)
    return outcomes


def test_mixed_ruleset_compiles_with_both_origins():
    rules = _mixed_ruleset()
    compiled = compile_ruleset(rules)
    accepted = {entry[0] for entry in rules} - {
        rule_id for rule_id, _ in compiled.skipped
    }
    assert any(rid.startswith("suite:") for rid in accepted)
    assert any(rid.startswith("sid:") for rid in accepted)
    # fixture rejections were filtered before compile; only compiler-level
    # skips remain, and each of those names its source line
    for rule_id, reason in compiled.skipped:
        if rule_id.startswith("sid:"):
            assert "local.rules:" in reason


@pytest.mark.parametrize("data", PAYLOADS, ids=range(len(PAYLOADS)))
def test_backends_agree_on_mixed_ruleset(data):
    rules = [
        entry for entry in _mixed_ruleset()
        if entry[0] not in {"sid:1000010", "sid:1000011", "sid:1000012",
                            "sid:1000013", "sid:1000014"}
    ]
    outcomes = _scan_all_backends(compile_ruleset(rules).network, data)
    assert "reference" in outcomes and len(outcomes) >= 2
    want_reports, want_stats = outcomes["reference"]
    for name, (reports, stats) in outcomes.items():
        assert reports == want_reports, (name, data)
        assert stats.equivalent(want_stats), (name, data)


def test_matcher_scan_matches_suite_and_snort_rules_together():
    """End-to-end through RulesetMatcher: one scan reports rules from
    both origins on a payload crafted to hit each."""
    suite_rules = [("suite:probe", "probe-[0-9]{2}")]
    parsed = load_rules(FIXTURE).rules
    matcher = RulesetMatcher(suite_rules + list(parsed))
    result = matcher.scan(b"probe-42 then GET /admin and uSeR-AgEnT")
    assert "suite:probe" in result.matches
    assert "sid:1000001" in result.matches
    assert "sid:1000003" in result.matches


def test_mixed_ruleset_scans_identically_when_split():
    """Scanning the mixed set equals the union of scanning each origin
    alone (no cross-talk between suite rules and parsed rules)."""
    suite_rules = [("suite:probe", "probe-[0-9]{2}")]
    parsed = [r for r in load_rules(FIXTURE).rules]
    data = b"probe-42 xxGET /admin Host: evil \xde\xad\xbe\xef"
    mixed = RulesetMatcher(suite_rules + parsed).scan(data).matches
    alone = (
        RulesetMatcher(suite_rules).scan(data).matches
        | RulesetMatcher(parsed).scan(data).matches
    )
    assert set(mixed) == set(alone)
