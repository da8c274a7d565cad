"""In-process matcher bodies, the shard policy, and the serving thread pool.

Scale-out lives in one place: the cluster
(:mod:`repro.serve.cluster`) runs rule subsets in separate processes
side by side, the way CAMA runs them on separate banks (Section 4.1).
This module holds what the local matchers and that cluster share:

* :func:`shard_rules` -- *the* round-robin shard-assignment policy;
* :func:`merge_scan_results` -- the per-shard
  :class:`~repro.matching.ScanResult` merge (union of matches, summed
  energy -- each shard's bank burns its own power -- and merged
  :class:`~repro.matching.CompileInfo` provenance);
* :class:`LocalMatcher` -- the session body behind both in-process
  :class:`~repro.session.Matcher` implementations;
* :class:`ShardedMatcher` -- the same shard policy inside one process:
  the in-process reference the cluster is checked against (every shard
  is scanned under one GIL, so K shards cost K scans);
* :class:`FeedPool` -- the serving layer's ``feed()`` offload threads.

Every shard's tables carry their own alphabet-class map (the partition
is per-network, so a shard's scanners all share one 256-byte map plus
``k`` class masks); compile options -- including ``opt_level``,
``cache_dir`` for the persistent ruleset cache, and ``engine`` (an
engine name from :mod:`repro.engine.backends`, or ``"auto"``) --
forward to each shard's matcher unchanged.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, TYPE_CHECKING

from ..session import MatchSession, MatchSink, ReportLayout, SessionPart, SessionScans
from .backends import AUTO_ENGINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..matching import CompileInfo, ResourceSummary, RulesetMatcher, ScanResult

__all__ = [
    "shard_rules",
    "merge_scan_results",
    "mp_context",
    "LocalMatcher",
    "ShardedMatcher",
    "FeedPool",
]


def mp_context(prefer: Sequence[str] = ("fork", "spawn")):
    """The best available :mod:`multiprocessing` context, or ``None``.

    ``fork`` first: the serve fleet's workers (replicas or cluster
    shards) inherit the parent's module state for free; ``spawn`` as
    the portable fallback.  ``None`` means no multiprocessing at all
    (restricted sandbox): the fleet then fails to start.
    """
    try:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        for method in prefer:
            if method in methods:
                return multiprocessing.get_context(method)
    except Exception:
        pass
    return None


def shard_rules(
    rules: Iterable[str] | Sequence[tuple[str, str]], shards: int
) -> list[list[tuple[str, str]]]:
    """Split rules round-robin into ``shards`` buckets.

    Bare pattern strings get the same ``rule{index}`` ids that
    :func:`~repro.compiler.pipeline.compile_ruleset` would assign, so a
    sharded compilation reports the same rule ids as an unsharded one.
    This is *the* shard-assignment policy: the network cluster layer
    (:class:`~repro.serve.cluster.LocalShardCluster`) calls the same
    function, so a ruleset splits identically whether the shards are
    threads in this process or match servers on other machines.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    from ..compiler.pipeline import normalize_rules

    named = normalize_rules(rules)
    buckets: list[list[tuple[str, str]]] = [[] for _ in range(shards)]
    for index, rule in enumerate(named):
        buckets[index % shards].append(rule)
    return buckets


# -- worker plumbing -------------------------------------------------------
class FeedPool:
    """Best-effort worker pool for CPU-bound ``feed()`` offload.

    The serving layer (:mod:`repro.serve`) must keep backend scan work
    off the event loop, but a :class:`~repro.session.MatchSession`
    carries live mutable scanner state, so serving offload uses
    **threads** sharing the compiled tables.  If a pool cannot be
    created (restricted sandbox, no threading), work degrades to
    synchronous in-caller execution with identical results.

    :meth:`submit` always returns a :class:`concurrent.futures.Future`
    (already resolved on the degraded path), so callers -- including
    ``asyncio`` code via :func:`asyncio.wrap_future` -- never branch
    on which mode they got.

    ``workers=None`` is **one** thread: scans hold the GIL, so a second
    scanning thread buys time-slicing between connections, never speed
    -- and with the ``block`` backend it costs speed.  NumPy drops the
    GIL around every lane op, so once the kernel has put two scanning
    threads on different cores they trade the lock at every op
    (measured on the ``serve40`` benchmark workload: ~16 000 voluntary
    context switches per 1.3 MB pass, CPU per pass x2.4, throughput
    6.1 -> 3.1 MB/s, and *which* of the two a pass sees depends on
    where the scheduler placed the threads).  Core-level scaling is
    the fleet's job (processes); ask for more threads only to keep a
    slow session from delaying the others' frames.

        >>> from repro.engine.parallel import FeedPool
        >>> with FeedPool(workers=2) as pool:
        ...     pool.submit(sum, [1, 2, 3]).result()
        6
    """

    def __init__(self, workers: Optional[int] = None):
        self._pool = None
        try:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=1 if workers is None else workers,
                thread_name_prefix="repro-feed",
            )
        except Exception:
            self._pool = None  # degraded: run inline

    @property
    def degraded(self) -> bool:
        """True when submissions run synchronously in the caller."""
        return self._pool is None

    def submit(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` on a worker; return its Future."""
        if self._pool is not None:
            try:
                return self._pool.submit(fn, *args, **kwargs)
            except RuntimeError:
                pass  # pool already shut down: fall through to inline
        from concurrent.futures import Future

        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Release the workers (idempotent; queued work completes when
        ``wait`` is true)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "FeedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def merge_scan_results(results: "Sequence[ScanResult]") -> "ScanResult":
    """Merge per-shard results for the *same* input stream.

    Matches are unioned per rule id; energy sums (each shard occupies
    its own CAM arrays, so per-byte energies add); compile provenance
    merges via :func:`~repro.matching.merge_compile_infos` (summed
    compile seconds, all-shards-warm cache flag) when every input
    carries it, instead of being dropped.

    The merge has an identity: an **empty** input returns the neutral
    result (zero bytes, no matches) and a one-element input returns an
    equal result unchanged -- so scatter-gather callers (the network
    cluster path, :mod:`repro.serve.cluster`) can fold whatever shard
    subset responded without special-casing 0 or 1 shards.

    >>> from repro import ScanResult, merge_scan_results
    >>> merged = merge_scan_results(
    ...     [ScanResult(5, {"a": [3]}), ScanResult(5, {"b": [5]})])
    >>> merged.matches
    {'a': [3], 'b': [5]}
    >>> merge_scan_results([]) == ScanResult(0, {})
    True
    >>> merge_scan_results([merged]) == merged
    True
    """
    from ..matching import ScanResult, merge_compile_infos

    if not results:
        return ScanResult(bytes_scanned=0, matches={})
    if len(results) == 1:
        return results[0]
    lengths = {result.bytes_scanned for result in results}
    if len(lengths) > 1:
        raise ValueError(f"shard results disagree on stream length: {lengths}")
    matches: dict[str, set[int]] = {}
    for result in results:
        for rule, ends in result.matches.items():
            matches.setdefault(rule, set()).update(ends)
    infos = [result.compile_info for result in results]
    return ScanResult(
        bytes_scanned=lengths.pop(),
        matches={rule: sorted(ends) for rule, ends in sorted(matches.items())},
        energy_nj_per_byte=sum(result.energy_nj_per_byte for result in results),
        compile_info=(
            merge_compile_infos(infos) if all(info is not None for info in infos)
            else None
        ),
    )


class LocalMatcher(SessionScans):
    """Sessions over in-process shard matchers.

    The one body behind both local :class:`~repro.session.Matcher`
    implementations: a :class:`~repro.matching.RulesetMatcher` is its
    own single shard, a :class:`ShardedMatcher` has several -- each
    names them through :attr:`_shard_matchers`, and everything here is
    written over that list.
    """

    engine: str
    #: the compiled matchers a session spans, in shard order
    _shard_matchers: "Sequence[RulesetMatcher]"
    #: the sessions' shared :class:`~repro.session.ReportLayout` (a
    #: function of the shards' tables and gates), built by the first one
    _session_layout: Optional[ReportLayout] = None

    def session(
        self,
        engine: Optional[str] = None,
        *,
        stream: Optional[str] = None,
        on_match: Optional[MatchSink] = None,
    ) -> MatchSession:
        """Open a :class:`~repro.session.MatchSession` over this ruleset.

        The session holds one fresh scanner per shard from the resolved
        backend (``engine`` overrides the matcher's default); each
        ``feed`` runs the chunk through all of them in lockstep and
        merges the new :class:`~repro.session.Match` events in absolute
        offset order, so a rule partition is invisible.  ``stream``
        tags every match and ``on_match`` (any callable, e.g. a
        :class:`~repro.session.CollectorSink`) observes each exactly
        once.  All batch entry points are wrappers over this.
        """
        engine = engine or self.engine
        parts = [
            SessionPart(
                scanner=shard._scanner(engine),
                end_anchored=shard._end_anchored,
                finalize=shard._result_from_reports,
            )
            for shard in self._shard_matchers
        ]
        if self._session_layout is None:
            self._session_layout = ReportLayout(parts)
        return MatchSession(
            parts, stream=stream, on_match=on_match, layout=self._session_layout
        )


class ShardedMatcher(LocalMatcher):
    """Round-robin ruleset sharding over independent in-process matchers.

    Same surface as :class:`~repro.matching.RulesetMatcher` for the
    scanning entry points (:meth:`scan`, :meth:`scan_stream`,
    :meth:`scan_many`), with per-shard results merged transparently.
    Every shard scans under one GIL, so this buys no speed: splitting a
    ruleset to run it in parallel is ``repro cluster``'s job
    (:class:`~repro.serve.cluster.LocalShardCluster`).  It is kept as
    the in-process reference the cluster's results are checked against
    (same :func:`shard_rules` policy, same merge) and as the multi-shard
    :class:`~repro.session.Matcher` the session tests cover.

    >>> from repro import ShardedMatcher
    >>> sharded = ShardedMatcher([("a", "abc"), ("b", "xyz")], shards=2)
    >>> sharded.scan(b"abcxyz").matches
    {'a': [3], 'b': [6]}

    Args:
        rules: as for :class:`~repro.matching.RulesetMatcher`.
        shards: number of round-robin shards (>= 1).
        **kwargs: forwarded to every shard's matcher.
    """

    def __init__(
        self,
        rules: Iterable[str] | Sequence[tuple[str, str]],
        shards: int = 2,
        **kwargs,
    ):
        from ..compiler.pipeline import dedupe_rules
        from ..matching import RulesetMatcher

        #: default engine, forwarded to every shard (any engine name,
        #: or "auto")
        self.engine: str = kwargs.get("engine", AUTO_ENGINE)
        # Deduplicate rule ids *before* sharding: round-robin would
        # otherwise scatter duplicates across shards where no single
        # compile_ruleset call can see the collision, silently
        # compiling the same id twice.
        unique, self._duplicate_skipped = dedupe_rules(rules)
        self.shards: list[RulesetMatcher] = [
            RulesetMatcher(bucket, **kwargs)
            for bucket in shard_rules(unique, shards)
        ]
        self._shard_matchers = self.shards

    @property
    def skipped(self) -> list[tuple[str, str]]:
        return self._duplicate_skipped + [
            entry for shard in self.shards for entry in shard.skipped
        ]

    @property
    def compile_infos(self) -> "list":
        """Per-shard :class:`~repro.matching.CompileInfo` (cache hits
        and compile timings, in shard order)."""
        return [shard.compile_info for shard in self.shards]

    @property
    def compile_info(self) -> "CompileInfo":
        """Merged compilation provenance across all shards (summed
        seconds, all-warm cache flag); also attached to every
        :class:`~repro.matching.ScanResult` this matcher produces."""
        from ..matching import merge_compile_infos

        return merge_compile_infos(self.compile_infos)

    def resources(self) -> "ResourceSummary":
        from ..matching import ResourceSummary

        parts = [shard.resources() for shard in self.shards]
        return ResourceSummary(
            rules_compiled=sum(p.rules_compiled for p in parts),
            rules_skipped=sum(p.rules_skipped for p in parts),
            stes=sum(p.stes for p in parts),
            counters=sum(p.counters for p in parts),
            bit_vectors=sum(p.bit_vectors for p in parts),
            cam_arrays=sum(p.cam_arrays for p in parts),
            pes=sum(p.pes for p in parts),
            area_mm2=sum(p.area_mm2 for p in parts),
            waste_mm2=sum(p.waste_mm2 for p in parts),
            opt_level=max((p.opt_level for p in parts), default=0),
            merged_stes=sum(p.merged_stes for p in parts),
            removed_nodes=sum(p.removed_nodes for p in parts),
            # each shard holds its own k-entry match table, so the
            # total table width across banks is the sum
            alphabet_classes=sum(p.alphabet_classes for p in parts),
        )
