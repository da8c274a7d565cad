"""Public-API snapshot: keep the exported surface honest.

Pins ``repro.__all__`` and the session-protocol signatures so that
accidental export drift or signature changes fail a test instead of
silently breaking downstream users.  Deliberate surface changes update
the snapshot here *and* the README migration guide.
"""

import inspect

import repro
from repro import (
    Match,
    MatchClient,
    Matcher,
    MatchServer,
    MatchSession,
    MultiStreamScanner,
    PatternMatcher,
    QueueSink,
    RemoteShardedMatcher,
    RulesetMatcher,
    ServerStats,
    ShardedMatcher,
)

EXPECTED_ALL = sorted(
    [
        "__version__",
        # regex
        "CharClass", "Pattern", "parse", "simplify",
        # nca
        "NCA", "build_nca", "NCAExecutor", "CountingSetExecutor",
        # analysis
        "Method", "InstanceResult", "RegexAnalysisResult", "analyze",
        "analyze_pattern",
        # mnrl
        "Network", "STE", "CounterNode", "BitVectorNode",
        # compiler
        "Decision", "CompiledPattern", "CompiledRuleset",
        "OptimizationReport", "compile_pattern", "compile_ruleset",
        "compute_alphabet_classes", "run_passes", "map_network",
        "NetworkMapping",
        # hardware
        "NetworkSimulator", "ReportEvent", "simulate", "CAM_ARRAY",
        "COUNTER", "BIT_VECTOR", "GEOMETRY", "area_of_mapping",
        "energy_of_run", "savings_of_mappings",
        # engine
        "TransitionTables", "compile_tables", "StreamScanner",
        "BlockScanner", "ShardedMatcher", "merge_scan_results",
        # engine names
        "available_engines", "resolve_backend",
        # high-level facade
        "RulesetMatcher", "PatternMatcher", "ScanResult", "CompileInfo",
        "merge_compile_infos",
        # session API
        "Match", "match_dict", "MatchSession", "Matcher",
        "MultiStreamScanner", "CollectorSink", "QueueSink",
        "UNNAMED_REPORT",
        # ruleset ingestion frontend
        "SnortRule", "TriagedRule", "TriageReport", "LoadedRuleset",
        "load_rules", "load_rules_text", "parse_rule", "translate_rule",
        # serving subsystem
        "MatchServer", "MatcherHandle", "MatchClient", "ServerStats",
        "WorkerFleet", "merge_server_stats", "scan_tagged_remote",
        # cluster scatter-gather
        "RemoteShardedMatcher", "LocalShardCluster",
        "ClusterPartialResultError",
    ]
)


def params_of(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def keyword_only_of(fn) -> set[str]:
    return {
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind is inspect.Parameter.KEYWORD_ONLY
    }


class TestExports:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_everything_in_all_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestInstallMetadata:
    def test_pyproject_names_the_package_and_its_version(self):
        """`pip install -e .` installs `repro` at `repro.__version__`
        with the `repro` command -- not an UNKNOWN-0.0.0 shell."""
        import importlib
        import tomllib
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        meta = tomllib.loads((root / "pyproject.toml").read_text())
        assert meta["project"]["name"] == "repro"
        assert meta["project"]["scripts"]["repro"] == "repro.cli:main"
        assert meta["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
        module, _, attr = meta["tool"]["setuptools"]["dynamic"]["version"][
            "attr"
        ].rpartition(".")
        version = getattr(importlib.import_module(module), attr)
        assert version == repro.__version__ == "1.0.0"


class TestSessionProtocolSignatures:
    def test_match_fields(self):
        assert [f.name for f in Match.__dataclass_fields__.values()] == [
            "rule", "end", "stream", "code", "generation",
        ]

    def test_session_methods(self):
        assert params_of(MatchSession.feed) == ["self", "chunk"]
        assert params_of(MatchSession.finish) == ["self"]
        assert params_of(MatchSession.matches) == ["self", "chunks"]
        assert params_of(MatchSession.result) == ["self"]

    @staticmethod
    def _check_session_factory(fn):
        assert params_of(fn) == ["self", "engine", "stream", "on_match"]
        assert keyword_only_of(fn) == {"stream", "on_match"}

    def test_matcher_session_factories_agree(self):
        self._check_session_factory(RulesetMatcher.session)
        self._check_session_factory(ShardedMatcher.session)

    def test_matcher_protocol_members(self):
        for member in (
            "session", "scan", "scan_stream", "scan_many",
            "matched_rules", "resources", "skipped",
        ):
            assert hasattr(RulesetMatcher, member), member
            assert hasattr(ShardedMatcher, member), member
            assert hasattr(RemoteShardedMatcher, member), member
            assert hasattr(Matcher, member), member

    def test_multistream_methods(self):
        assert params_of(MultiStreamScanner.feed) == ["self", "tag", "chunk"]
        assert params_of(MultiStreamScanner.finish) == ["self", "tag"]
        assert params_of(MultiStreamScanner.scan_tagged) == ["self", "pairs"]
        for member in ("finish_all", "result", "results", "streams", "session"):
            assert hasattr(MultiStreamScanner, member), member

    def test_finditer_signature(self):
        assert params_of(PatternMatcher.finditer) == ["self", "data", "stream"]

    def test_queue_sink_overflow_surface(self):
        assert params_of(QueueSink.__init__) == ["self", "maxsize", "overflow"]
        sink = QueueSink(maxsize=1, overflow="drop_oldest")
        assert sink.dropped == 0  # the dropped-count is part of the API


class TestServeSurface:
    def test_match_server_signature(self):
        params = params_of(MatchServer.__init__)
        assert params[:2] == ["self", "matcher"]
        assert keyword_only_of(MatchServer.__init__) == {
            "host", "port", "engine", "queue_depth", "workers",
            "drain_timeout", "sock", "reuse_port", "worker",
        }
        for member in ("start", "stop", "serve_forever", "stats",
                       "address", "connections", "reload", "matcher"):
            assert hasattr(MatchServer, member), member

    def test_match_client_surface(self):
        for member in ("connect", "open", "feed", "close_stream", "stats",
                       "ping", "quit", "aclose"):
            assert hasattr(MatchClient, member), member

    def test_server_stats_fields(self):
        fields = set(ServerStats.__dataclass_fields__)
        assert {
            "engine", "connections_open", "connections_total",
            "streams_open", "streams_total", "bytes_scanned",
            "matches_emitted", "feeds", "errors", "busy_seconds",
            "uptime_seconds",
        } <= fields
        assert isinstance(ServerStats.throughput_bps, property)
        assert callable(ServerStats.as_dict)
