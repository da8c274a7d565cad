"""Docstring contract over the public surface.

Two guarantees, enforced so the docs satellite cannot rot:

1. every symbol exported by ``repro.__all__`` carries a docstring;
2. the core user-facing symbols carry an *executable* example
   (``>>>``), and every example in the key modules actually runs
   (``doctest`` here in tier-1; CI additionally doctests the markdown
   suite under ``docs/``);
3. the docs quote the one repository benchmark: nothing mentions the
   deleted second one, and every name in ``docs/PERFORMANCE.md``'s
   tables is a workload or metric of ``BENCHMARK.json``.
"""

import doctest
import importlib
import inspect
import json
import os
import re
from pathlib import Path

import pytest

import repro

#: symbols whose docstrings must contain a runnable ``>>>`` example
#: (the core surface a new user meets first; growing this list is
#: encouraged, shrinking it is an API-docs regression)
EXAMPLED = [
    "Match",
    "match_dict",
    "MatchSession",
    "MultiStreamScanner",
    "CollectorSink",
    "QueueSink",
    "RulesetMatcher",
    "PatternMatcher",
    "ScanResult",
    "ShardedMatcher",
    "merge_scan_results",
    "StreamScanner",
    "compile_tables",
    "compile_pattern",
    "compile_ruleset",
    "analyze_pattern",
    "parse",
    "simplify",
    "build_nca",
    "NetworkSimulator",
    "simulate",
    "available_engines",
    "resolve_backend",
    "parse_rule",
    "translate_rule",
    "load_rules_text",
]

#: modules whose doctests run as part of tier-1 (the CI markdown leg
#: covers docs/*.md and README.md on top)
DOCTESTED_MODULES = [
    "repro.session",
    "repro.matching",
    "repro.serve.protocol",
    "repro.serve.stats",
    "repro.serve.cluster",
    "repro.engine.parallel",
    "repro.engine.scanner",
    "repro.engine.tables",
    "repro.engine.backends",
    "repro.compiler.pipeline",
    "repro.rules.content",
    "repro.rules.parser",
    "repro.rules.translate",
    "repro.rules.triage",
    "repro.rules.loader",
    "repro.workloads.snort_rules",
    "repro.analysis.hybrid",
    "repro.regex.parser",
    "repro.regex.rewrite",
    "repro.nca.glushkov",
    "repro.hardware.simulator",
]


class TestDocstrings:
    def test_every_public_symbol_documented(self):
        undocumented = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            doc = obj.__doc__ if not isinstance(obj, str) else True
            if not doc:
                undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    @pytest.mark.parametrize("name", EXAMPLED)
    def test_core_symbols_carry_examples(self, name):
        doc = inspect.getdoc(getattr(repro, name)) or ""
        assert ">>>" in doc, f"{name} lost its executable docstring example"


class TestDoctestsRun:
    @pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"{module_name}: {result.failed} doctest failure(s)"


ROOT = Path(__file__).resolve().parent.parent


class TestDocsQuoteTheHarness:
    def test_nothing_mentions_the_deleted_benchmark(self):
        # history may name it: the change log, the issue, the roadmap
        history = {"CHANGES.md", "ISSUE.md", "ROADMAP.md"}
        gone = (
            "bench_" + "engine", "BENCH_" + "engine", "benchmarks/" + "results",
            # the scan_many process pool
            "scan_" + "streams", "_run_" + "pool",
        )
        stale = []
        for folder, subfolders, files in os.walk(ROOT):
            subfolders[:] = [
                name
                for name in subfolders
                if name not in {".git", ".hypothesis", ".pytest_cache", "__pycache__"}
            ]
            for name in files:
                path = Path(folder, name)
                if path.suffix in {".md", ".py", ".yml"} and name not in history:
                    text = path.read_text(encoding="utf-8", errors="replace")
                    stale += [
                        f"{path.relative_to(ROOT)}: {word}"
                        for word in gone
                        if word in text
                    ]
        assert not stale

    def test_performance_tables_name_benchmark_workloads_and_metrics(self):
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {
            entry["name"]
            for key in ("workloads", "end_to_end", "per_layer")
            for entry in benchmark[key]
        }
        rows = [
            line
            for line in (ROOT / "docs" / "PERFORMANCE.md").read_text().splitlines()
            if line.startswith("|")
        ]
        quoted = {name for row in rows for name in re.findall(r"`([^`]+)`", row)}
        assert quoted and quoted <= names, sorted(quoted - names)
        # the table of current medians has a row for every workload
        assert {entry["name"] for entry in benchmark["workloads"]} <= quoted
