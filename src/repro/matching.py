"""High-level matching facade: compile once, scan many streams.

This is the downstream-user entry point: hand it a rule set, get back
per-rule match results plus the hardware resource/energy story, without
touching the compiler, mapping, or simulator layers directly.

Example::

    matcher = RulesetMatcher([
        ("overlong-header", r"\\n[^\\r\\n]{256,1024}"),
        ("shellcode-nop",  r"\\x90{16,64}"),
    ])
    result = matcher.scan(payload)
    result.matched_rules()           # {'overlong-header'}
    result.matches["overlong-header"]  # [match end offsets]
    matcher.resources().cam_arrays   # hardware footprint
    result.energy_nj_per_byte        # Table 2-based estimate

Sessions are the primary scanning surface (:mod:`repro.session`): one
live scan of one logical stream, emitting incremental
:class:`~repro.session.Match` events with absolute offsets::

    with matcher.session(on_match=alert) as session:
        for chunk in iter_chunks(socket):
            session.feed(chunk)       # -> [Match, ...] new this chunk
    session.result()                  # the classic ScanResult

The batch entry points (:meth:`RulesetMatcher.scan`,
:meth:`~RulesetMatcher.scan_stream`, :meth:`~RulesetMatcher.scan_many`,
:meth:`~RulesetMatcher.matched_rules`) are thin wrappers over sessions
-- one code path, identical reports/stats/energy either way.
Streaming state carries across chunks; results are identical to a
single-buffer :meth:`RulesetMatcher.scan` of the concatenation::

    result = matcher.scan_stream(iter_chunks(socket))

Reporting semantics (shared by every scan entry point)
------------------------------------------------------
* **Match positions are 1-based end offsets.**  A report at position
  ``p`` means a match ended after the ``p``-th byte of the stream.
* **Empty matches are not reported.**  A nullable pattern (``a*``)
  trivially matches at every offset; the hardware only fires reports on
  byte consumption, so those zero-length matches never appear in
  :attr:`ScanResult.matches`.  Query :meth:`RulesetMatcher.empty_match_rules`
  (or ``PatternMatcher.matches``, which accounts for them) instead.
* **``$``-anchored rules report only at end-of-data.**  The hardware
  reports every prefix end and gates the report vector with an
  end-of-data strobe; the facade applies the same gate, which is why
  streaming results can only be finalized once the stream length is
  known (at ``finish()``/``scan_stream`` return, not per chunk).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .analysis.result import Method
from .compiler.cache import (
    RuleMeta,
    RulesetArtifact,
    CACHE_VERSION,
    artifact_path,
    load_artifact,
    ruleset_cache_key,
    save_artifact,
)
from .compiler.mapping import NetworkMapping, map_network
from .compiler.passes import OptimizationReport
from .compiler.pipeline import CompiledRuleset, compile_ruleset, normalize_sourced
from .engine.backends import (
    AUTO_ENGINE,
    REFERENCE_ENGINE,
    ReferenceScanner,
    resolve_backend,
)
from .engine.block import BlockScanner, numpy_or_none
from .engine.parallel import LocalMatcher
from .engine.scanner import Chunk, ReportColumns, coerce_chunk
from .engine.tables import KIND_COUNTER, TransitionTables, compile_tables
from .hardware.cost import AreaReport, area_of_mapping, energy_of_run
from .hardware.simulator import ActivityStats
from .mnrl.network import Network
from .session import Match, MatchSession, SessionPart, UNNAMED_REPORT

__all__ = [
    "RulesetMatcher",
    "PatternMatcher",
    "ScanResult",
    "ResourceSummary",
    "CompileInfo",
    "merge_compile_infos",
    "UNNAMED_REPORT",
]


@dataclass
class ScanResult:
    """Outcome of scanning one input stream.

    Positions in :attr:`matches` are 1-based match *end* offsets into
    the stream.  Zero-length matches of nullable rules are never listed
    (the hardware cannot report without consuming a byte); ``$``-anchored
    rules only ever list the final offset ``bytes_scanned`` (the facade
    gates their reports with the end-of-data strobe).  See the module
    docstring for the full semantics contract.

    >>> from repro import RulesetMatcher
    >>> result = RulesetMatcher([("hit", "abc")]).scan(b"zabcabc")
    >>> result.bytes_scanned, result.matches, result.total_matches()
    (7, {'hit': [4, 7]}, 2)
    """

    bytes_scanned: int
    #: rule id -> sorted distinct match end offsets (1-based)
    matches: dict[str, list[int]] = field(default_factory=dict)
    energy_nj_per_byte: float = 0.0
    #: provenance of the compilation that produced this scan (merged
    #: across shards for sharded results); excluded from equality --
    #: two scans of the same data are equal results regardless of
    #: whether their matcher warm-started
    compile_info: Optional["CompileInfo"] = field(
        default=None, compare=False, repr=False
    )

    def matched_rules(self) -> set[str]:
        return set(self.matches)

    def total_matches(self) -> int:
        return sum(len(ends) for ends in self.matches.values())


@dataclass(frozen=True)
class ResourceSummary:
    """Static hardware footprint of the compiled rule set.

    The trailing fields surface what the optimisation pipeline did:
    at ``opt_level >= 1`` the STE/CAM counts above describe the
    *optimized* network, and ``merged_stes``/``removed_nodes`` say how
    much the passes took off relative to the naive emission.
    ``alphabet_classes`` is the match-table width ``k`` after
    alphabet-equivalence compression (256 = incompressible).
    """

    rules_compiled: int
    rules_skipped: int
    stes: int
    counters: int
    bit_vectors: int
    cam_arrays: int
    pes: int
    area_mm2: float
    waste_mm2: float
    opt_level: int = 0
    merged_stes: int = 0
    removed_nodes: int = 0
    alphabet_classes: int = 0


@dataclass(frozen=True)
class CompileInfo:
    """How a :class:`RulesetMatcher` obtained its compiled form."""

    #: artifact loaded from the persistent cache (parsing, analysis,
    #: emission, lowering, mapping and the sweep-program build all
    #: skipped)?
    cache_hit: bool
    #: wall-clock seconds spent producing the ready-to-scan state.  With
    #: a ``cache_dir`` that is all of it -- the scan program is built
    #: (cold) or loaded (warm) here, not on the first scan; without one,
    #: table lowering and the sweep-program build stay lazy and are paid by
    #: the first scan instead.
    seconds: float
    opt_level: int
    #: artifact file backing this matcher (None when uncached)
    cache_path: Optional[str] = None
    #: where ``seconds`` went, by phase -- ``triage`` (rules frontend),
    #: ``compile``, ``lower``, ``map``, ``prepare``, ``load``, ``save``
    #: -- holding only the phases that ran (``load`` is the cache probe,
    #: hit or miss): a cache hit is ``{"load": ...}`` and nothing else
    phases: dict[str, float] = field(default_factory=dict)


@contextmanager
def timed_phase(phases: dict[str, float], name: str) -> Iterator[None]:
    """Add the wall-clock seconds of the ``with`` body to
    ``phases[name]`` (the bookkeeping behind :attr:`CompileInfo.phases`)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def merge_compile_infos(infos: Sequence[CompileInfo]) -> CompileInfo:
    """Aggregate per-shard :class:`CompileInfo` into one summary.

    Seconds and per-phase seconds sum (each shard compiled its own
    slice), ``cache_hit`` is true only when *every* shard warm-started,
    ``opt_level`` is the highest level any shard ran, and ``cache_path``
    is kept only when the shards agree (a single-matcher merge) -- a
    sharded compilation is backed by many artifacts, reachable per
    shard via
    :attr:`~repro.engine.parallel.ShardedMatcher.compile_infos`.
    An empty sequence raises -- unlike
    :func:`~repro.engine.parallel.merge_scan_results` there is no
    neutral ``CompileInfo`` (``cache_hit`` has no identity value).
    """
    if not infos:
        raise ValueError("nothing to merge")
    paths = {info.cache_path for info in infos}
    phases: dict[str, float] = {}
    for info in infos:
        for name, seconds in info.phases.items():
            phases[name] = phases.get(name, 0.0) + seconds
    return CompileInfo(
        cache_hit=all(info.cache_hit for info in infos),
        seconds=sum(info.seconds for info in infos),
        opt_level=max(info.opt_level for info in infos),
        cache_path=paths.pop() if len(paths) == 1 else None,
        phases=phases,
    )


def _open_scanner(engine: str, tables: TransitionTables, network: Callable[[], Network]):
    """A fresh scanner of ``engine`` over ``tables``; the reference
    oracle interprets ``network()``, the network the tables came from."""
    resolved = resolve_backend(engine, tables)
    if resolved.name == REFERENCE_ENGINE:
        return ReferenceScanner(tables, network())
    return resolved.make_scanner(tables)


class RulesetMatcher(LocalMatcher):
    """Compile a rule set to augmented-CAMA form and scan streams.

    The compiled tables are the matcher: two scanners execute them,
    and an oracle checks them, all with one semantics contract
    (identical distinct reports and identical activity statistics;
    names resolved by :mod:`repro.engine.backends`):

    * ``"auto"`` (default) -- ``"block"`` when NumPy imports and its
      sweep analysis accepts the tables, else ``"stream"``;
    * ``"stream"`` -- precompiled transition tables, integer-bitmask
      per-byte loop;
    * ``"block"`` -- NumPy bit-parallel block sweeps (needs numpy);
    * ``"reference"`` -- the node-by-node
      :class:`~repro.hardware.simulator.NetworkSimulator` over
      :attr:`network`, kept as the executable specification the
      scanners are tested against (on a cache hit its first use
      compiles the rules again).

    Args:
        rules: pattern strings or ``(rule_id, pattern)`` pairs; rules
            with unsupported features are skipped and listed in
            :attr:`skipped`.
        unfold_threshold: Figure 9/10 knob (0 = maximal module use).
        method: which static analysis drives module selection.
        strict_modules: keep the body-level single-token gate on
            (recommended; see ``repro.analysis.module_safety``).
        engine: default engine for the scan entry points -- ``"auto"``,
            ``"stream"``, ``"block"`` or ``"reference"``.
        opt_level: optimisation pipeline level
            (:mod:`repro.compiler.passes`).  ``0`` (default) preserves
            byte-exact :class:`~repro.hardware.simulator.ActivityStats`
            equivalence with the classic pipeline; ``1+`` additionally
            runs dead-node elimination and cross-rule prefix sharing
            (exact report-set equivalence only; resource/stat deltas
            show up in :meth:`resources`).
        cache_dir: directory for the persistent compiled-ruleset cache.
            On a key hit (same rules *and* same compile options) the
            matcher warm-starts from the stored artifact -- a pure
            load: parsing, analysis, emission, table lowering, CAMA
            mapping and the block scanner's sweep-program build are
            all skipped; otherwise it does all of those once and
            writes the artifact.  See :attr:`compile_info` for what
            happened.

    Reporting semantics (all scan entry points): 1-based end offsets,
    no zero-length matches, ``$`` gated to end-of-data -- see the
    module docstring.

    >>> from repro import RulesetMatcher
    >>> matcher = RulesetMatcher([("hit", "abc"), ("num", "[0-9]{3}")])
    >>> matcher.scan(b"xxabc123").matches
    {'hit': [5], 'num': [8]}
    >>> sorted(matcher.matched_rules(b"zabcz"))
    ['hit']
    """

    def __init__(
        self,
        rules: Iterable[str] | Sequence[tuple[str, str]],
        unfold_threshold: float = 0,
        method: Method | str = Method.HYBRID,
        strict_modules: bool = True,
        max_pairs: Optional[int] = 2_000_000,
        engine: str = AUTO_ENGINE,
        opt_level: int = 0,
        cache_dir: Optional[str] = None,
    ):
        if engine != AUTO_ENGINE:
            # fail fast -- one consistent unknown-engine error, and an
            # unavailable engine (block without numpy) raises before
            # the compile spends seconds on a ruleset it cannot serve
            resolve_backend(engine)
        self.engine = engine
        start = time.perf_counter()
        # sourced triples keep each rule's file:line provenance so
        # compile-time skip reasons (and the cache key) carry it
        named = normalize_sourced(rules)

        # what compile_ruleset takes besides the rules: kept, with the
        # rules, so a warm matcher can rebuild its network on demand
        self._named = named
        self._compile_options = dict(
            unfold_threshold=unfold_threshold,
            method=method,
            strict_modules=strict_modules,
            max_pairs=max_pairs,
            opt_level=opt_level,
        )

        phases: dict[str, float] = {}
        cache_path: Optional[str] = None
        artifact: Optional[RulesetArtifact] = None
        if cache_dir is not None:
            key = ruleset_cache_key(
                named,
                unfold_threshold=unfold_threshold,
                method=str(getattr(method, "value", method)),
                strict_modules=strict_modules,
                max_pairs=max_pairs,
                opt_level=opt_level,
            )
            cache_path = artifact_path(cache_dir, key)
            with timed_phase(phases, "load"):
                artifact = load_artifact(cache_dir, key)

        #: full compile-time state; ``None`` on a cache hit (the slim
        #: artifact carries everything the facade needs)
        self.ruleset: Optional[CompiledRuleset] = None
        self._network: Optional[Network] = None
        if artifact is not None:
            self._tables: Optional[TransitionTables] = artifact.tables
            self._rule_meta: list[RuleMeta] = artifact.rules
            self._skipped: list[tuple[str, str]] = artifact.skipped
            self.optimization: Optional[OptimizationReport] = artifact.optimization
            self.mapping: NetworkMapping = artifact.mapping
        else:
            with timed_phase(phases, "compile"):
                self.ruleset = compile_ruleset(named, **self._compile_options)
            self._network = self.ruleset.network
            self._tables = None
            self._rule_meta = [
                RuleMeta(
                    report_id=compiled.report_id,
                    source=compiled.source,
                    anchored_end=compiled.pattern.anchored_end,
                    matches_empty=compiled.matches_empty,
                )
                for compiled in self.ruleset.patterns
            ]
            self._skipped = self.ruleset.skipped
            self.optimization = self.ruleset.optimization
            with timed_phase(phases, "map"):
                self.mapping = map_network(self.network)
            if cache_dir is not None:
                # the artifact holds everything a scan needs: lowering
                # and the block scanner's sweep program are forced into it
                with timed_phase(phases, "lower"):
                    tables = self.tables
                with timed_phase(phases, "prepare"):
                    if numpy_or_none() is not None:
                        BlockScanner.can_sweep(tables)  # builds and keeps the program
                with timed_phase(phases, "save"):
                    cache_path = save_artifact(
                        RulesetArtifact(
                            version=CACHE_VERSION,
                            key=key,
                            tables=tables,
                            mapping=self.mapping,
                            rules=self._rule_meta,
                            skipped=self._skipped,
                            opt_level=opt_level,
                            optimization=self.optimization,
                        ),
                        cache_dir,
                    )

        self._area: AreaReport = area_of_mapping(self.mapping)
        self._opt_level = opt_level
        # `$`-anchored rules match only when the report position is the
        # final byte of the stream; the hardware reports every prefix
        # end, so the facade filters (real deployments gate the report
        # vector with an end-of-data strobe the same way)
        self._end_anchored: frozenset[str] = frozenset(
            meta.report_id for meta in self._rule_meta if meta.anchored_end
        )
        #: cold-vs-warm provenance and timing of this compilation
        self.compile_info = CompileInfo(
            cache_hit=artifact is not None,
            seconds=time.perf_counter() - start,
            opt_level=opt_level,
            cache_path=cache_path,
            phases=phases,
        )

    # -- introspection -----------------------------------------------------
    @property
    def skipped(self) -> list[tuple[str, str]]:
        return self._skipped

    @property
    def network(self) -> Network:
        """The rules' emitted network: the compiler's intermediate form,
        which only the ``reference`` oracle, ``viz`` and ``compile
        --output`` read.  A cache hit does not load one: the first read
        compiles the rules again with the same options (which lowers to
        the cached tables) and keeps the result."""
        if self._network is None:
            self._network = compile_ruleset(self._named, **self._compile_options).network
        return self._network

    @property
    def tables(self) -> TransitionTables:
        """Precompiled transition tables (built lazily, cached; shared
        by every scan and pickled into the cache artifact)."""
        if self._tables is None:
            self._tables = compile_tables(self.network)
        return self._tables

    def resources(self) -> ResourceSummary:
        bank = self.mapping.bank
        optimization = self.optimization
        tables = self.tables
        counters = tables.module_kinds.count(KIND_COUNTER)
        return ResourceSummary(
            rules_compiled=len(self._rule_meta),
            rules_skipped=len(self._skipped),
            stes=tables.n_stes,
            counters=counters,
            bit_vectors=tables.n_modules - counters,
            cam_arrays=bank.cam_arrays_used,
            pes=bank.pes_used,
            area_mm2=self._area.total_mm2,
            waste_mm2=self._area.waste_mm2,
            opt_level=self._opt_level,
            merged_stes=optimization.merged_stes if optimization else 0,
            removed_nodes=optimization.removed_nodes if optimization else 0,
            alphabet_classes=tables.n_classes,
        )

    def empty_match_rules(self) -> set[str]:
        """Rules that match the empty string (they trivially match at
        every offset; the hardware does not report those -- see the
        module docstring's semantics contract)."""
        return {
            meta.report_id for meta in self._rule_meta if meta.matches_empty
        }

    # -- scanning ------------------------------------------------------------
    def _result_from_reports(
        self,
        reports: ReportColumns,
        bytes_scanned: int,
        stats: ActivityStats,
    ) -> ScanResult:
        """Apply the facade's reporting semantics to a scanner's report
        columns: ``$`` end-of-data gating, deterministic naming of
        unnamed reports, Table 2 energy pricing."""
        # the columns are distinct and ordered by (end, index), so each
        # report index's ends come out ascending and distinct
        ends_of: list[list[int]] = [[] for _ in reports.ids]
        for end, index in zip(reports.ends.tolist(), reports.index.tolist()):
            ends_of[index].append(end)
        matches: dict[str, list[int]] = {}
        for code, ends in zip(reports.ids, ends_of):
            rule = code if code is not None else UNNAMED_REPORT
            if rule in self._end_anchored:
                ends = ends[-1:] if ends and ends[-1] == bytes_scanned else []
            if not ends:
                continue
            if rule in matches:  # an unnamed report and a literal UNNAMED_REPORT id
                ends = sorted(set(matches[rule]).union(ends))
            matches[rule] = ends
        energy = energy_of_run(stats, self.mapping)
        # rule ids are sorted so the mapping's order is deterministic,
        # matching merge_scan_results
        return ScanResult(
            bytes_scanned=bytes_scanned,
            matches={rule: matches[rule] for rule in sorted(matches)},
            energy_nj_per_byte=energy.nj_per_byte,
            compile_info=self.compile_info,
        )

    def _scanner(self, engine: Optional[str] = None):
        """A fresh scanner of the resolved engine."""
        return _open_scanner(engine or self.engine, self.tables, lambda: self.network)

    @property
    def _shard_matchers(self) -> "list[RulesetMatcher]":
        return [self]


class PatternMatcher:
    """Single-pattern matcher with full anchor semantics.

    Wraps the compiled hardware for one pattern and answers the two
    standard questions:

    * :meth:`search` -- streaming match ends anywhere in the data
      (``^``/``$`` respected);
    * :meth:`finditer` -- the same matches as lazy
      :class:`~repro.session.Match` events over chunked input;
    * :meth:`matches` -- whole-string membership, i.e. the pattern
      matched somewhere with its anchors satisfied (for a ``^...$``
      pattern this is exact-string matching).

    Runs on the ``auto``-selected scanner by default; pass any engine
    name, e.g. ``engine="reference"`` for the node-by-node simulator.

    >>> from repro import PatternMatcher
    >>> pm = PatternMatcher(r"a(bc){1,3}d")
    >>> pm.search(b"xabcbcdy")
    [7]
    >>> pm.matches("abcd")
    True
    """

    def __init__(self, pattern: str, engine: str = AUTO_ENGINE, **kwargs):
        from .compiler.pipeline import compile_pattern

        if engine != AUTO_ENGINE:
            resolve_backend(engine)  # fail fast: unknown or unavailable
        self.engine = engine
        self.pattern = pattern
        self.compiled = compile_pattern(pattern, report_id=pattern, **kwargs)
        # tables and executor are built lazily on first search
        self._tables: Optional[TransitionTables] = None
        self._scanner = None

    def search(self, data: Chunk) -> list[int]:
        """Distinct *nonempty* match **end** offsets, 1-based, anchors
        respected.

        An offset ``p`` means a match ended *after* the ``p``-th byte:
        ``PatternMatcher("abc").search(b"zabc")`` returns ``[4]``, not
        the ``1`` a start-offset API (like :func:`re.search`'s
        ``span()[0]``) would give -- the hardware reports on the cycle
        that consumes a match's final byte, and where matches of
        different lengths end at the same byte only that one end offset
        is reported.  Empty matches (nullable patterns) are never
        listed -- consult :meth:`matches` / ``compiled.matches_empty``
        for those.
        """
        data = coerce_chunk(data)
        if self._scanner is None:
            self._scanner = self._new_scanner()
        ends = self._scanner.match_ends(data)
        if self.compiled.pattern.anchored_end:
            ends = [e for e in ends if e == len(data)]
        return ends

    def finditer(
        self, data: Chunk | Iterable[Chunk], stream: Optional[str] = None
    ) -> Iterator[Match]:
        """Lazily yield the pattern's matches as
        :class:`~repro.session.Match` events (``rule`` is the pattern
        string, ``end`` the 1-based absolute end offset).

        Accepts one buffer or an iterable of chunks; offsets are
        absolute across chunk boundaries, so any chunking yields the
        same events as one buffer (the chunk-boundary equivalent of
        :meth:`search`'s single-buffer semantics).  For ``$``-anchored
        patterns nothing is yielded until the input is exhausted (only
        then is "at end-of-data" decidable).
        """
        if isinstance(data, (bytes, bytearray, memoryview, str)):
            data = (data,)
        scanner = self._new_scanner()
        # one event-only session part: the shared session layer owns
        # absolute offsets and $-gating (no finalize -- a single
        # pattern has no ScanResult/energy story)
        gate = (
            frozenset([self.compiled.report_id])
            if self.compiled.pattern.anchored_end
            else frozenset()
        )
        session = MatchSession(
            [SessionPart(scanner=scanner, end_anchored=gate)], stream=stream
        )
        return session.matches(data)

    def _new_scanner(self):
        if self._tables is None:
            self._tables = compile_tables(self.compiled.network)
        return _open_scanner(self.engine, self._tables, lambda: self.compiled.network)

    def matches(self, data: Chunk) -> bool:
        """True iff the pattern matches within ``data`` (anchors kept).

        Nullable patterns match trivially (the empty match is available
        at every offset, or at end-of-data for ``$``-anchored ones).
        """
        if self.compiled.matches_empty:
            return True
        return bool(self.search(data))
