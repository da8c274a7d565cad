"""Command-line interface: ``python -m repro <command>``.

Commands mirror the toolchain stages:

* ``analyze``  -- run the counter-(un)ambiguity analysis on a pattern;
* ``compile``  -- compile a pattern to extended MNRL, or a whole rule
  file (``--rules``) into the persistent ruleset cache
  (``--cache-dir``) so later ``scan`` runs warm-start;
* ``scan``     -- stream a file (or stdin) through a rule set in chunks
  on one engine (``--engine auto`` picks the fastest available);
  ``-O1`` enables the optimisation passes, ``--cache-dir``
  reuses/creates cached compilations, ``--verbose`` reports the
  available engines, compile/
  cache timing, and per-rule skip reasons.  With ``--streams`` the
  input is treated as interleaved ``tag<TAB>chunk`` lines: one
  compiled ruleset serves every tagged stream through per-stream
  sessions (:class:`~repro.session.MultiStreamScanner`), reporting
  per-stream results;
* ``serve``    -- run the asyncio match server: one compiled ruleset
  (same compile options as ``scan``) served over TCP to N concurrent
  line-protocol clients by a supervised fleet of ``--workers`` server
  processes (protocol spec: ``docs/SERVING.md``); stops gracefully --
  drain, flush, ``BYE`` -- on SIGINT/SIGTERM;
* ``connect``  -- smoke-test client for ``serve``: stream interleaved
  ``tag<TAB>chunk`` lines (the ``scan --streams`` format) to a running
  server and report per-stream matches;
* ``cluster``  -- scatter-gather over network ruleset shards
  (:mod:`repro.serve.cluster`): either spawn M local shard servers
  from one rule file (``--rules``/``--shards``, each server process
  holding a round-robin slice -- the one way to split a ruleset) and
  serve until SIGTERM, or attach to an existing
  shard fleet (``--attach host:port,...``); with ``--input`` the
  spawned or attached cluster one-shots a tagged-chunk scan whose
  merged per-stream results equal an offline ``scan --streams`` run;
* ``rules``    -- ingest Snort-style ``.rules`` files through the
  :mod:`repro.rules` frontend and report the triage (every rule
  classified compiled / rewritten / rejected-with-reason; ``--json``
  for the machine-readable document, ``--compile``/``--cache-dir`` to
  also compile the accepted rules and fold compile-level skips in);
* ``census``   -- Table 1-style census of a synthetic suite;
* ``report``   -- regenerate one of the paper's tables/figures.

Rule files are plain text: one ``id<TAB>pattern`` (or just ``pattern``)
per line; ``#`` comments and blank lines are ignored.  ``scan
--format snort`` instead reads Snort-style ``.rules`` files through
the ingestion frontend (accepted rules scan, rejected ones are
reported on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from .analysis.hybrid import analyze_pattern
from .compiler.mapping import map_network
from .compiler.pipeline import compile_pattern
from .engine.backends import (
    AUTO_ENGINE,
    BackendUnavailable,
    available_engines,
    engine_choices,
)
from .hardware.cost import area_of_mapping
from .matching import RulesetMatcher
from .mnrl.serialize import dumps, save
from .serve.cluster import ClusterPartialResultError
from .session import MultiStreamScanner, match_dict
from .workloads.stats import census
from .workloads.synth import suite_by_name

__all__ = ["main", "build_parser"]


def _positive_count(text: str) -> int:
    """``--shards`` / ``--workers`` value: a count, so 0 and negatives
    are usage errors rather than another spelling of "one"."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _add_compile_options(
    parser, *, cache_help: str, engine_help: Optional[str] = None
) -> None:
    """Declare the compile options once for every subcommand that
    builds a ruleset (``--engine`` only where the command also executes
    one); :func:`_compile_options` reads them back."""
    parser.add_argument(
        "--threshold",
        type=float,
        default=0,
        help="unfold occurrences with upper bound <= threshold "
        "(inf = unfold everything)",
    )
    parser.add_argument(
        "-O",
        "--opt-level",
        type=int,
        default=0,
        help="optimisation passes: 0 = none (stat-exact), "
        "1+ = dead-node elimination + cross-rule prefix sharing "
        "(report-set equivalence)",
    )
    parser.add_argument("--cache-dir", help=cache_help)
    if engine_help is not None:
        parser.add_argument(
            "--engine",
            choices=engine_choices(),
            default=AUTO_ENGINE,
            help=engine_help,
        )


def _compile_options(args) -> dict:
    """The parsed :func:`_add_compile_options` flags as the keyword
    options every matcher/spec constructor takes."""
    options = dict(
        unfold_threshold=args.threshold,
        opt_level=args.opt_level,
        cache_dir=args.cache_dir,
    )
    if hasattr(args, "engine"):
        options["engine"] = args.engine
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-memory regex matching with counters and bit vectors "
        "(PLDI 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="counter-(un)ambiguity analysis")
    p_analyze.add_argument("pattern")
    p_analyze.add_argument(
        "--method", choices=["exact", "approximate", "hybrid"], default="hybrid"
    )
    p_analyze.add_argument("--witness", action="store_true")

    p_compile = sub.add_parser(
        "compile",
        help="compile a pattern to extended MNRL, or a rule file into "
        "the persistent ruleset cache",
    )
    p_compile.add_argument(
        "pattern", nargs="?", help="single pattern (omit when using --rules)"
    )
    p_compile.add_argument(
        "--rules", help="compile a whole rule file (id\\tpattern lines)"
    )
    p_compile.add_argument("-o", "--output", help="write MNRL JSON here")
    _add_compile_options(
        p_compile,
        cache_help="persist the compiled ruleset here (warm starts skip "
        "parsing/analysis/emission); requires --rules",
    )

    p_scan = sub.add_parser(
        "scan", help="scan a file or stdin with a rule set (streaming)"
    )
    p_scan.add_argument("--rules", required=True, help="rule file (id\\tpattern lines)")
    p_scan.add_argument(
        "--input", required=True, help="data file to scan ('-' reads stdin)"
    )
    p_scan.add_argument(
        "--format",
        choices=["native", "snort"],
        default="native",
        help="rule file format: native = id\\tpattern lines, snort = "
        "Snort-style .rules ingested through the repro.rules frontend "
        "(rejected rules reported on stderr)",
    )
    p_scan.add_argument(
        "--chunk-size",
        type=int,
        default=1 << 16,
        help="streaming read size in bytes (default 64 KiB)",
    )
    _add_compile_options(
        p_scan,
        cache_help="warm-start from (and populate) the persistent ruleset cache",
        engine_help="execution engine: auto = fastest available "
        "scanner for the compiled ruleset; "
        "stream = scalar interpreter; block = NumPy vectorized "
        "block scanner (if numpy is installed); reference = "
        "node-by-node simulator (recompiles the rules on a cache hit)",
    )
    p_scan.add_argument(
        "--streams",
        action="store_true",
        help="serve many interleaved tagged streams over one compiled "
        "ruleset: each input line is 'tag<TAB>chunk' (latin-1 text; "
        "chunks with the same tag form one logical stream, interleaved "
        "arbitrarily), results are reported per stream",
    )
    p_scan.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="report compile/cache timing, optimisation results, and "
        "per-rule skip reasons",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve a compiled ruleset over TCP (line protocol, "
        "see docs/SERVING.md)",
    )
    p_serve.add_argument("--rules", required=True, help="rule file (id\\tpattern lines)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks an ephemeral port, printed on the "
        "ready line)",
    )
    _add_compile_options(
        p_serve,
        cache_help="warm-start from (and populate) the persistent ruleset cache",
        engine_help="execution backend for every served session",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=32,
        help="per-connection backpressure depth (frames in flight "
        "before socket reads pause)",
    )
    p_serve.add_argument(
        "--threads", type=int, default=None,
        help="feed-offload thread count per server process "
        "(default: 1 -- scans hold the GIL, more threads only "
        "time-slice connections; scale with --workers)",
    )
    p_serve.add_argument(
        "--workers", type=_positive_count, default=1,
        help="server process count: a supervised fleet of workers "
        "sharing host:port via SO_REUSEPORT (crashed workers are "
        "respawned; see docs/SERVING.md 'Multi-worker deployment')",
    )
    p_serve.add_argument(
        "--reload", action="store_true",
        help="enable hot ruleset reload on SIGHUP (re-reads --rules, "
        "swaps atomically; in-flight streams drain on the old tables)",
    )
    p_serve.add_argument(
        "--control",
        help="unix control-socket path speaking "
        "PING/GEN/STATS/RELOAD/STOP (one reply line per command; "
        "RELOAD re-reads --rules, as SIGHUP does)",
    )

    p_connect = sub.add_parser(
        "connect",
        help="stream tagged chunks to a running match server "
        "(smoke-test client)",
    )
    p_connect.add_argument("--host", default="127.0.0.1")
    p_connect.add_argument("--port", type=int, required=True)
    p_connect.add_argument(
        "--input", default="-",
        help="tag<TAB>chunk lines, interleaved (default '-' = stdin; "
        "same format as 'scan --streams')",
    )
    p_connect.add_argument(
        "--retries", type=int, default=5,
        help="extra connection attempts before giving up (exponential "
        "backoff with jitter), for racing a just-started server",
    )
    p_connect.add_argument(
        "--stats", action="store_true",
        help="also print the server's STATS snapshot",
    )
    p_connect.add_argument(
        "--json", action="store_true",
        help="machine-readable output: one JSON document with "
        "per-stream summaries, match events (with ruleset "
        "generations), and the server STATS snapshot "
        "(schema: docs/SERVING.md)",
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="scatter-gather a ruleset over network shard servers "
        "(spawn local shards from --rules, or --attach host:port,...)",
    )
    p_cluster.add_argument(
        "--rules",
        help="spawn mode: rule file to split round-robin over --shards "
        "local shard servers",
    )
    p_cluster.add_argument(
        "--attach",
        help="attach mode: comma-separated host:port shard endpoints "
        "(one running match server per ruleset shard)",
    )
    p_cluster.add_argument(
        "--shards", type=_positive_count, default=3,
        help="shard server count in spawn mode (default 3)",
    )
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument(
        "--ports",
        help="comma-separated fixed ports for spawned shards "
        "(default: ephemeral, printed on the ready line)",
    )
    p_cluster.add_argument(
        "--input",
        help="one-shot scan: tag<TAB>chunk lines ('-' = stdin; same "
        "format as 'scan --streams'); omit in spawn mode to keep the "
        "shards serving until SIGINT/SIGTERM",
    )
    _add_compile_options(
        p_cluster,
        cache_help="warm-start spawned shards from the persistent ruleset cache",
        engine_help="execution backend for every spawned shard server",
    )
    p_cluster.add_argument(
        "--retries", type=int, default=5,
        help="extra connection attempts per shard before giving up "
        "(exponential backoff with jitter)",
    )
    p_cluster.add_argument(
        "--stats", action="store_true",
        help="also print the merged cluster STATS snapshot",
    )
    # read by the supervision loop spawn mode shares with serve
    p_cluster.set_defaults(reload=False, control=None)

    p_rules = sub.add_parser(
        "rules",
        help="ingest Snort-style .rules files and report the triage "
        "(compiled / rewritten / rejected-with-reason)",
    )
    p_rules.add_argument(
        "files", nargs="+", help="Snort-style .rules files (one id namespace)"
    )
    p_rules.add_argument(
        "--json",
        action="store_true",
        help="machine-readable triage document (schema: docs/RULES.md)",
    )
    p_rules.add_argument(
        "--compile",
        action="store_true",
        help="also compile the accepted rules and fold compile-level "
        "skips into the triage",
    )
    _add_compile_options(
        p_rules,
        cache_help="compile through the persistent ruleset cache "
        "(implies --compile)",
    )
    p_rules.add_argument(
        "--rejected",
        action="store_true",
        help="list every rejected rule with its reason and origin",
    )

    p_census = sub.add_parser("census", help="Table 1-style suite census")
    p_census.add_argument(
        "--suite",
        choices=["Snort", "Suricata", "Protomata", "SpamAssassin", "ClamAV"],
        required=True,
    )
    p_census.add_argument("--total", type=int, default=None)
    p_census.add_argument("--seed", type=int, default=None)

    p_report = sub.add_parser("report", help="regenerate a table/figure")
    p_report.add_argument(
        "--which",
        choices=["table1", "table2", "fig2", "fig3", "fig8", "fig9", "fig10"],
        required=True,
    )
    p_report.add_argument("--scale", type=float, default=0.2)
    return parser


def _cmd_analyze(args) -> int:
    result = analyze_pattern(
        args.pattern, method=args.method, record_witness=args.witness
    )
    if not result.has_counting:
        print("no bounded repetition; nothing to analyze")
        return 0
    for inst in result.instances:
        verdict = "AMBIGUOUS" if inst.treat_as_ambiguous else "unambiguous"
        if not inst.conclusive:
            verdict = "inconclusive (treated ambiguous)"
        line = (
            f"occurrence #{inst.instance} {{{inst.lo},{inst.hi}}}: {verdict} "
            f"[{inst.method.value}, {inst.pairs_created} pairs, "
            f"{inst.elapsed_s * 1000:.2f} ms]"
        )
        if inst.witness is not None:
            line += f" witness={inst.witness!r}"
        print(line)
    print(f"regex verdict: {'ambiguous' if result.ambiguous else 'unambiguous'}")
    return 0


def _cmd_compile(args) -> int:
    if args.rules:
        return _compile_rules(args)
    if not args.pattern:
        print("error: provide a pattern or --rules FILE", file=sys.stderr)
        return 2
    if args.cache_dir:
        print("error: --cache-dir requires --rules", file=sys.stderr)
        return 2
    compiled = compile_pattern(args.pattern, unfold_threshold=args.threshold)
    print(
        f"{compiled.ste_count} STEs, {compiled.counter_count} counters, "
        f"{compiled.bit_vector_count} bit vectors "
        f"(decisions: { {k: v.value for k, v in compiled.decisions.items()} })"
    )
    mapping = map_network(compiled.network)
    area = area_of_mapping(mapping)
    print(
        f"placement: {mapping.bank.pes_used} PEs, "
        f"{mapping.bank.cam_arrays_used} CAM arrays, "
        f"area {area.total_mm2:.6f} mm^2"
    )
    if args.output:
        save(compiled.network, args.output)
        print(f"MNRL written to {args.output}")
    else:
        print(dumps(compiled.network))
    return 0


def _phases_text(info) -> str:
    """``CompileInfo.phases`` on one line, largest share first."""
    ranked = sorted(info.phases.items(), key=lambda item: -item[1])
    return ", ".join(f"{name} {seconds * 1e3:.1f} ms" for name, seconds in ranked)


def _compile_rules(args) -> int:
    """``compile --rules``: build (and optionally cache) a ruleset."""
    matcher = RulesetMatcher(_read_rules(args.rules), **_compile_options(args))
    info = matcher.compile_info
    resources = matcher.resources()
    tables = matcher.tables
    source = "cache (warm start)" if info.cache_hit else "fresh compile"
    print(
        f"compiled {resources.rules_compiled} rules "
        f"({resources.rules_skipped} skipped) in {info.seconds * 1e3:.1f} ms "
        f"[{source}, -O{info.opt_level}]"
    )
    print(
        f"  {resources.stes} STEs / {resources.counters} ctr / "
        f"{resources.bit_vectors} bv; {resources.cam_arrays} CAM arrays; "
        f"area {resources.area_mm2:.4f} mm^2"
    )
    print(
        f"  tables: {tables.n_classes} alphabet classes (of 256), "
        f"{resources.merged_stes} STEs merged, "
        f"{resources.removed_nodes} dead nodes removed"
    )
    print(f"  phases: {_phases_text(info)}")
    for rule_id, reason in matcher.skipped:
        print(f"  skipped {rule_id}: {reason}", file=sys.stderr)
    if info.cache_path:
        print(f"  artifact: {info.cache_path}")
    if args.output:
        save(matcher.network, args.output)
        print(f"MNRL written to {args.output}")
    return 0


def _read_rules(path: str, fmt: str = "native") -> list[tuple]:
    if fmt == "snort":
        from .rules import load_rules

        loaded = load_rules(path)
        counts = loaded.report.counts
        if counts["rejected"]:
            print(
                f"triage: {counts['compiled']} compiled, "
                f"{counts['rewritten']} rewritten, "
                f"{counts['rejected']} rejected "
                f"(run 'repro rules {path}' for details)",
                file=sys.stderr,
            )
        return loaded.rules
    rules: list[tuple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" in line:
                rule_id, pattern = line.split("\t", 1)
            else:
                rule_id, pattern = f"rule{index}", line
            rules.append((rule_id, pattern))
    return rules


class _InputError(Exception):
    """``--input`` cannot be opened; :func:`main` prints it, exit 2."""


@contextlib.contextmanager
def _open_input(path: str):
    """The binary input handle for ``--input`` (``-`` = stdin, which
    is left open)."""
    if path == "-":
        yield sys.stdin.buffer
        return
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise _InputError(f"cannot read --input: {exc}") from exc
    with handle:
        yield handle


def _chunks(handle, size: int):
    while True:
        chunk = handle.read(size)
        if not chunk:
            return
        yield chunk


def _cmd_scan(args) -> int:
    matcher = RulesetMatcher(
        _read_rules(args.rules, fmt=args.format), **_compile_options(args)
    )
    if args.verbose:
        info = matcher.compile_info
        source = "cache hit (warm start)" if info.cache_hit else "fresh compile"
        print(
            f"compiled in {info.seconds * 1e3:.1f} ms "
            f"[{source}, -O{info.opt_level}; {_phases_text(info)}]",
            file=sys.stderr,
        )
        for rule_id, reason in matcher.skipped:
            print(f"skipped {rule_id}: {reason}", file=sys.stderr)
        print(f"engines available: {', '.join(available_engines())}", file=sys.stderr)
    elif matcher.skipped:
        print(
            f"skipped {len(matcher.skipped)} rule(s); "
            "use --verbose for reasons",
            file=sys.stderr,
        )

    resources = matcher.resources()
    if args.streams:
        return _scan_multi_stream(
            matcher, args, "served", f" with {resources.rules_compiled} rules"
        )
    with _open_input(args.input) as handle:
        # every engine streams, so one entry point serves all --engine
        # choices (including reference and auto)
        result = matcher.scan_stream(_chunks(handle, max(1, args.chunk_size)))
    print(
        f"scanned {result.bytes_scanned} bytes with "
        f"{resources.rules_compiled} rules "
        f"({resources.stes} STEs / {resources.counters} ctr / "
        f"{resources.bit_vectors} bv; {resources.area_mm2:.4f} mm^2; "
        f"{result.energy_nj_per_byte:.4f} nJ/B)"
    )
    if args.verbose:
        print(
            f"  -O{resources.opt_level}: {resources.alphabet_classes} alphabet "
            f"classes, {resources.merged_stes} STEs merged, "
            f"{resources.removed_nodes} dead nodes removed"
        )
    _print_rule_matches(result.matches)
    if not result.matches:
        print("  no matches")
    return 0


def _tagged_chunks(handle):
    """Parse interleaved ``tag<TAB>chunk`` lines from a binary handle.

    Yields ``(line_number, tag, payload)``; the payload is the raw
    bytes after the first tab (the trailing newline is framing, not
    stream data).  Lines without a tab raise :class:`ValueError`.
    """
    for number, raw in enumerate(handle, start=1):
        # strip exactly the line framing (one \n, plus at most one
        # preceding \r): payload bytes that happen to be \r are data
        line = raw[:-1] if raw.endswith(b"\n") else raw
        if line.endswith(b"\r"):
            line = line[:-1]
        if not line:
            continue
        tag, sep, payload = line.partition(b"\t")
        if not sep:
            raise ValueError(
                f"line {number}: expected 'tag<TAB>chunk', got {line[:40]!r}"
            )
        yield number, tag.decode("latin-1"), payload


def _print_rule_matches(matches: dict[str, list[int]]) -> None:
    for rule_id in sorted(matches):
        ends = matches[rule_id]
        shown = ", ".join(map(str, ends[:8]))
        suffix = ", ..." if len(ends) > 8 else ""
        print(f"  {rule_id}: {len(ends)} match(es) at [{shown}{suffix}]")


def _print_stream_results(
    verb: str,
    streams: dict[str, tuple[int, int, dict[str, list[int]]]],
    suffix: str = "",
) -> None:
    """The per-stream report of ``scan --streams``, ``cluster`` and
    ``connect``: ``streams`` maps each tag to ``(bytes, match count,
    {rule: sorted end offsets})``."""
    print(
        f"{verb} {len(streams)} stream(s), "
        f"{sum(nbytes for nbytes, _, _ in streams.values())} bytes, "
        f"{sum(count for _, count, _ in streams.values())} match(es){suffix}"
    )
    for tag in sorted(streams):
        nbytes, count, by_rule = streams[tag]
        print(f"stream {tag}: {nbytes} bytes, {count} match(es)")
        _print_rule_matches(by_rule)
    if not streams:
        print("  no streams")


def _scan_multi_stream(matcher, args, verb: str, suffix: str) -> int:
    """``scan --streams`` and ``cluster --input``: demultiplex tagged
    lines into per-stream sessions over the one matcher (a compiled
    ruleset, or remote shards) and report per stream."""
    try:
        with _open_input(args.input) as handle:
            results = MultiStreamScanner(matcher).scan_tagged(
                (tag, payload) for _, tag, payload in _tagged_chunks(handle)
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClusterPartialResultError as exc:
        # partial-result contract: name the casualty, keep what
        # was already delivered visible, exit distinctly
        print(f"error: {exc}", file=sys.stderr)
        for stream in sorted(exc.delivered):
            for match in exc.delivered[stream]:
                print(
                    f"  delivered {stream}: {match.rule} @ {match.end}",
                    file=sys.stderr,
                )
        return 3
    _print_stream_results(
        verb,
        {
            tag: (result.bytes_scanned, result.total_matches(), result.matches)
            for tag, result in results.items()
        },
        suffix,
    )
    if getattr(args, "stats", False):
        print(f"cluster stats: {matcher.stats().as_dict()}")
    return 0


def _serve_summary(stats) -> None:
    print(
        f"served {stats.connections_total} connection(s), "
        f"{stats.streams_total} stream(s), {stats.bytes_scanned} bytes, "
        f"{stats.matches_emitted} match(es)"
    )


class _ServeControl:
    """The control socket's target: the fleet's generation and stats,
    and ``RELOAD`` through the same ``reload`` that SIGHUP runs (it
    re-reads ``--rules``)."""

    def __init__(self, fleet, reload):
        self._fleet = fleet
        self.reload = reload

    @property
    def generation(self) -> int:
        return self._fleet.generation

    def stats(self):
        return self._fleet.stats()


def _supervise(fleet, args, work=None) -> int:
    """Drive a started fleet, then drain it: the one loop behind
    ``serve`` and ``cluster``'s spawn mode.

    ``work`` (a one-shot scan) runs instead of serving; otherwise the
    fleet serves until SIGINT/SIGTERM or the control socket's
    ``STOP``, with ``--reload`` arming SIGHUP hot reload and
    ``--control`` the unix control socket.  The drain prints the
    respawn count and the ``served ...`` summary; returns ``work``'s
    exit code (0 when serving).
    """
    import signal
    import threading

    from .serve.control import ControlServer

    stop = threading.Event()
    reload_requested = threading.Event()

    def do_reload() -> int:
        """Re-read ``--rules`` and hot-swap it: SIGHUP and the control
        socket's ``RELOAD`` both land here."""
        try:
            generation = fleet.reload(rules=_read_rules(args.rules))
        except Exception as exc:  # noqa: BLE001 - operator-facing
            print(f"reload failed: {exc}", file=sys.stderr, flush=True)
            raise
        print(f"reloaded ruleset: generation {generation}", flush=True)
        return generation

    code = 0
    control = None
    try:
        if work is not None:
            code = work()
        else:
            handlers = {signal.SIGINT: stop.set, signal.SIGTERM: stop.set}
            if args.reload and hasattr(signal, "SIGHUP"):
                handlers[signal.SIGHUP] = reload_requested.set
            for signum, action in handlers.items():
                signal.signal(signum, lambda *_, act=action: act())
            if args.control:
                control = ControlServer(
                    _ServeControl(fleet, do_reload), args.control,
                    on_stop=stop.set,
                )
                control.start()
                print(f"control socket at {args.control}", file=sys.stderr)
            while not stop.wait(0.2):
                if reload_requested.is_set():
                    reload_requested.clear()
                    with contextlib.suppress(Exception):
                        do_reload()  # already reported; keep serving
    finally:
        print("draining...", file=sys.stderr)
        if control is not None:
            control.stop()
        fleet.stop(drain=True)
    if fleet.restarts:
        print(f"respawned {fleet.restarts} worker(s)", file=sys.stderr)
    if fleet.final_stats is not None:
        _serve_summary(fleet.final_stats)
    return code


def _cmd_serve(args) -> int:
    """``serve``: compile once, supervise a fleet of ``--workers``
    server processes (default one -- the configuration the ``serve40``
    benchmark workload measures) until a signal arrives, then drain
    gracefully.  ``--reload`` arms SIGHUP hot ruleset reload,
    ``--control`` a unix control socket."""
    from .serve.fleet import FleetError, WorkerFleet

    rules = _read_rules(args.rules)
    fleet = WorkerFleet(
        rules,
        workers=args.workers,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        threads=args.threads,
        **_compile_options(args),
    )
    try:
        fleet.start()
    except (OSError, FleetError) as exc:
        print(
            f"error: cannot serve on {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    if fleet.skipped:
        print(f"skipped {len(fleet.skipped)} rule(s)", file=sys.stderr)
    # the ready line is machine-readable: smoke tests poll for it
    print(
        f"serving {len(rules) - len(fleet.skipped)} rules on "
        f"{fleet.host}:{fleet.port} (engine {args.engine}, "
        f"queue depth {args.queue_depth}, workers {args.workers}, "
        f"{sum(fleet.cache_hits)} warm-started, generation {fleet.generation})",
        flush=True,
    )
    return _supervise(fleet, args)


def _cmd_connect(args) -> int:
    """``connect``: stream a tagged-chunk file at a running server and
    report per-stream matches (the serve smoke-test client)."""
    import json

    from .serve.client import scan_tagged_remote

    try:
        with _open_input(args.input) as handle:
            pairs = [
                (tag, payload) for _, tag, payload in _tagged_chunks(handle)
            ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        matches, summaries, stats = scan_tagged_remote(
            args.host, args.port, pairs, retries=max(0, args.retries)
        )
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2

    if args.json:
        document = {
            "host": args.host,
            "port": args.port,
            "streams": {
                tag: {
                    "bytes": summary.bytes_scanned,
                    "matches": summary.matches_emitted,
                    "generation": summary.generation,
                    "events": [
                        {
                            "rule": match.rule,
                            "end": match.end,
                            "generation": match.generation,
                        }
                        for match in matches.get(tag, [])
                    ],
                }
                for tag, summary in summaries.items()
            },
            "totals": {
                "streams": len(summaries),
                "bytes": sum(s.bytes_scanned for s in summaries.values()),
                "matches": sum(s.matches_emitted for s in summaries.values()),
            },
            "stats": stats,
        }
        print(json.dumps(document, sort_keys=True))
        return 0
    _print_stream_results(
        "served",
        {
            tag: (
                summary.bytes_scanned,
                summary.matches_emitted,
                match_dict(matches.get(tag, [])),
            )
            for tag, summary in summaries.items()
        },
    )
    if args.stats:
        print(f"server stats: {stats}")
    return 0


def _cmd_cluster(args) -> int:
    """``cluster``: spawn or attach to a shard-server fleet and either
    one-shot a tagged scan (``--input``) or serve until a signal."""
    from .serve.cluster import LocalShardCluster, RemoteShardedMatcher

    def scan_with(matcher) -> int:
        return _scan_multi_stream(
            matcher, args, "scanned",
            f" across {matcher.shard_count} shard(s)",
        )

    if bool(args.rules) == bool(args.attach):
        print(
            "error: exactly one of --rules (spawn) or --attach (attach)",
            file=sys.stderr,
        )
        return 2

    if args.attach:
        if args.input is None:
            print("error: --attach requires --input", file=sys.stderr)
            return 2
        endpoints = [part for part in args.attach.split(",") if part.strip()]
        try:
            # a bad or empty endpoint list is a ValueError from the matcher
            matcher = RemoteShardedMatcher(endpoints, retries=args.retries)
        except (ValueError, ConnectionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        with matcher:
            return scan_with(matcher)

    # spawn mode: one rule file, round-robin over --shards local servers
    rules = _read_rules(args.rules)
    try:
        ports = tuple(
            int(part) for part in args.ports.split(",") if part.strip()
        ) if args.ports else ()
    except ValueError:
        print(f"error: bad --ports list {args.ports!r}", file=sys.stderr)
        return 2
    try:
        cluster = LocalShardCluster(
            rules,
            shards=args.shards,
            host=args.host,
            ports=ports,
            **_compile_options(args),
        )
        cluster.start()
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: cannot start shard servers: {exc}", file=sys.stderr)
        return 2
    addresses = ",".join(f"{host}:{port}" for host, port in cluster.addresses)
    # the ready line is machine-readable: smoke tests poll for it
    print(
        f"cluster of {cluster.shard_count} shard(s) on {addresses} "
        f"({cluster.rule_count} rules, engine {args.engine}, "
        f"mode {cluster.mode})",
        flush=True,
    )

    def scan() -> int:
        with RemoteShardedMatcher(
            cluster.addresses, retries=args.retries
        ) as matcher:
            return scan_with(matcher)

    return _supervise(cluster, args, None if args.input is None else scan)


def _cmd_rules(args) -> int:
    """``rules``: triage Snort-style rule files (optionally compile)."""
    import json

    from .rules import load_rules

    try:
        loaded = load_rules(args.files)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compile_block = None
    if args.compile or args.cache_dir:
        # before anything reads ``loaded.report``: with a cache_dir the
        # triage itself comes from the cache
        matcher, report = loaded.compile(**_compile_options(args))
        info = matcher.compile_info
        resources = matcher.resources()
        compile_block = {
            "cache_hit": info.cache_hit,
            "seconds": info.seconds,
            "opt_level": info.opt_level,
            "cache_path": info.cache_path,
            "phases": info.phases,
            "rules_compiled": resources.rules_compiled,
            "stes": resources.stes,
            "counters": resources.counters,
            "bit_vectors": resources.bit_vectors,
        }
    else:
        report = loaded.report

    if args.json:
        document = report.as_dict()
        document["files"] = list(loaded.files)
        if compile_block is not None:
            document["compile"] = compile_block
        print(json.dumps(document, sort_keys=True))
        return 0

    print(f"files: {', '.join(loaded.files)}")
    print(report.summary())
    if args.rejected:
        for rule in report.rejected:
            where = rule.origin or rule.rule_id
            detail = f": {rule.detail}" if rule.detail else ""
            print(f"  rejected {where} [{rule.reason}]{detail}")
    if compile_block is not None:
        source = "cache (warm start)" if compile_block["cache_hit"] else "fresh compile"
        print(
            f"compiled {compile_block['rules_compiled']} rules in "
            f"{compile_block['seconds'] * 1e3:.1f} ms [{source}, "
            f"-O{compile_block['opt_level']}]: "
            f"{compile_block['stes']} STEs / {compile_block['counters']} ctr / "
            f"{compile_block['bit_vectors']} bv"
        )
        if compile_block["cache_path"]:
            print(f"  artifact: {compile_block['cache_path']}")
    return 0


def _cmd_census(args) -> int:
    suite = suite_by_name(args.suite, total=args.total, seed=args.seed)
    row = census(suite)
    print(
        f"{row.name}: total {row.total}, supported {row.supported}, "
        f"counting {row.counting}, counter-ambiguous {row.ambiguous} "
        f"[{row.elapsed_s:.2f}s]"
    )
    return 0


def _cmd_report(args) -> int:
    from . import experiments as ex

    which = args.which
    if which == "table1":
        print(ex.format_table1(ex.run_table1(scale=args.scale)))
    elif which == "table2":
        print(ex.format_table2(ex.run_table2()))
    elif which == "fig2":
        result = ex.run_fig2(scale=args.scale)
        print(ex.format_fig2(result))
        print()
        print(ex.format_fig2(result, metric="pairs"))
    elif which == "fig3":
        result = ex.run_fig3_family()
        result.points.extend(ex.run_fig3(scale=args.scale).points)
        print(ex.format_fig3(result))
    elif which == "fig8":
        print(ex.format_fig8(ex.run_fig8()))
    elif which == "fig9":
        print(ex.format_fig9(ex.run_fig9(scale=args.scale)))
    elif which == "fig10":
        fig9 = ex.run_fig9(scale=args.scale)
        print(ex.format_fig10(ex.run_fig10(scale=args.scale, prepped=fig9.prepped)))
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "compile": _cmd_compile,
    "scan": _cmd_scan,
    "serve": _cmd_serve,
    "connect": _cmd_connect,
    "cluster": _cmd_cluster,
    "rules": _cmd_rules,
    "census": _cmd_census,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BackendUnavailable, _InputError) as exc:
        # e.g. --engine block without numpy (argparse offers every
        # engine name regardless of availability) or a missing
        # --input file: a clean message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
