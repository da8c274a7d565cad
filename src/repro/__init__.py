"""repro: reproduction of "Software-Hardware Codesign for Efficient
In-Memory Regular Pattern Matching" (PLDI 2022).

The library spans the paper's whole stack:

* :mod:`repro.regex` -- POSIX-style regexes with counting: parser,
  rewrites, metrics, unfolding, and a derivative-based oracle matcher;
* :mod:`repro.nca` -- nondeterministic counter automata: the Glushkov
  construction and token-set / counting-set execution engines;
* :mod:`repro.analysis` -- the static counter-(un)ambiguity analyses
  (exact, over-approximate, hybrid, with witness generation);
* :mod:`repro.mnrl` -- the MNRL-style interchange format extended with
  counter and bit-vector nodes;
* :mod:`repro.compiler` -- regex-to-MNRL compilation, the optimisation
  pass pipeline (alphabet classes, cross-rule prefix sharing, dead-node
  elimination), the persistent compiled-ruleset cache, and CAMA
  mapping;
* :mod:`repro.hardware` -- the augmented-CAMA functional simulator and
  the Table 2 energy/delay/area cost model;
* :mod:`repro.engine` -- the streaming scan engine: precompiled
  transition tables and two scanners over them (``"stream"`` scalar
  interpreter, ``"block"`` NumPy vectorized scanner; ``"auto"`` picks
  one), chunked ``feed``/``finish`` scanning, batch/sharded
  front-ends; both report- and stats-equivalent to the ``"reference"``
  simulator, which a matcher builds from its rules;
* :mod:`repro.session` -- the session-oriented matching API:
  incremental :class:`Match` events with absolute offsets, the
  :class:`Matcher` protocol shared by single and sharded matchers,
  pluggable sinks, and :class:`MultiStreamScanner` multi-stream
  demultiplexing (one compiled ruleset, N interleaved client streams);
* :mod:`repro.serve` -- the async match-serving subsystem:
  :class:`MatchServer` (asyncio TCP line-protocol server with bounded
  per-connection backpressure, threaded feed off-load, graceful
  drain), :class:`MatchClient`/:func:`scan_tagged_remote`,
  :class:`ServerStats` load snapshots, and the cluster scatter-gather
  layer (:class:`RemoteShardedMatcher` over M remote ruleset shards);
  CLI ``repro serve`` / ``repro connect`` / ``repro cluster``;
* :mod:`repro.rules` -- the Snort/PCRE ruleset ingestion frontend:
  rule-line parsing (``content:``/``pcre:`` with ``nocase``,
  ``offset``/``depth``/``distance``/``within``, ``|AA BB|`` hex
  blocks), conservative translation into the project dialect, and
  triage classifying every rule as compiled / rewritten / rejected
  with a machine-readable reason; CLI ``repro rules``;
* :mod:`repro.workloads` -- synthetic Snort/Suricata/Protomata/
  SpamAssassin/ClamAV-style suites and input streams;
* :mod:`repro.experiments` -- drivers regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import compile_pattern, NetworkSimulator

    compiled = compile_pattern(r"a(bc){1,3}d")
    sim = NetworkSimulator(compiled.network)
    print(sim.match_ends(b"xabcbcdy"))   # -> [7]
"""

from .analysis import (
    InstanceResult,
    Method,
    RegexAnalysisResult,
    analyze,
    analyze_pattern,
)
from .compiler import (
    CompiledPattern,
    CompiledRuleset,
    Decision,
    OptimizationReport,
    compile_pattern,
    compile_ruleset,
    compute_alphabet_classes,
    run_passes,
)
from .compiler.mapping import NetworkMapping, map_network
from .engine import (
    BlockScanner,
    ShardedMatcher,
    StreamScanner,
    TransitionTables,
    available_engines,
    compile_tables,
    merge_scan_results,
    resolve_backend,
)
from .hardware import (
    BIT_VECTOR,
    CAM_ARRAY,
    COUNTER,
    GEOMETRY,
    NetworkSimulator,
    ReportEvent,
    simulate,
)
from .hardware.cost import area_of_mapping, energy_of_run, savings_of_mappings
from .matching import (
    CompileInfo,
    PatternMatcher,
    RulesetMatcher,
    ScanResult,
    merge_compile_infos,
)
from .mnrl import BitVectorNode, CounterNode, Network, STE
from .nca import NCA, CountingSetExecutor, NCAExecutor, build_nca
from .regex import CharClass, Pattern, parse, simplify
from .rules import (
    LoadedRuleset,
    SnortRule,
    TriagedRule,
    TriageReport,
    load_rules,
    load_rules_text,
    parse_rule,
    translate_rule,
)
from .serve import (
    ClusterPartialResultError,
    LocalShardCluster,
    MatchClient,
    MatchServer,
    MatcherHandle,
    RemoteShardedMatcher,
    ServerStats,
    WorkerFleet,
    merge_server_stats,
    scan_tagged_remote,
)
from .session import (
    CollectorSink,
    Match,
    MatchSession,
    Matcher,
    MultiStreamScanner,
    QueueSink,
    UNNAMED_REPORT,
    match_dict,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # regex
    "CharClass",
    "Pattern",
    "parse",
    "simplify",
    # nca
    "NCA",
    "build_nca",
    "NCAExecutor",
    "CountingSetExecutor",
    # analysis
    "Method",
    "InstanceResult",
    "RegexAnalysisResult",
    "analyze",
    "analyze_pattern",
    # mnrl
    "Network",
    "STE",
    "CounterNode",
    "BitVectorNode",
    # compiler
    "Decision",
    "CompiledPattern",
    "CompiledRuleset",
    "OptimizationReport",
    "compile_pattern",
    "compile_ruleset",
    "compute_alphabet_classes",
    "run_passes",
    "map_network",
    "NetworkMapping",
    # hardware
    "NetworkSimulator",
    "ReportEvent",
    "simulate",
    "CAM_ARRAY",
    "COUNTER",
    "BIT_VECTOR",
    "GEOMETRY",
    "area_of_mapping",
    "energy_of_run",
    "savings_of_mappings",
    # engine
    "TransitionTables",
    "compile_tables",
    "StreamScanner",
    "BlockScanner",
    "ShardedMatcher",
    "merge_scan_results",
    # engine names
    "available_engines",
    "resolve_backend",
    # high-level facade
    "RulesetMatcher",
    "PatternMatcher",
    "ScanResult",
    "CompileInfo",
    "merge_compile_infos",
    # session API (incremental Match events, multi-stream serving)
    "Match",
    "match_dict",
    "MatchSession",
    "Matcher",
    "MultiStreamScanner",
    "CollectorSink",
    "QueueSink",
    "UNNAMED_REPORT",
    # ruleset ingestion frontend (Snort-style .rules files + triage)
    "SnortRule",
    "TriagedRule",
    "TriageReport",
    "LoadedRuleset",
    "load_rules",
    "load_rules_text",
    "parse_rule",
    "translate_rule",
    # serving subsystem (async TCP match server + client + fleet)
    "MatchServer",
    "MatcherHandle",
    "MatchClient",
    "ServerStats",
    "WorkerFleet",
    "merge_server_stats",
    "scan_tagged_remote",
    # cluster scatter-gather (network-sharded rulesets)
    "RemoteShardedMatcher",
    "LocalShardCluster",
    "ClusterPartialResultError",
]
