"""Persistent compiled-ruleset cache (compile once, serve many).

The hardware's deployment story is load-time amortization: a ruleset
is compiled and burned into the CAM arrays once, then every stream is
served from the precomputed configuration.  This module gives the
software pipeline the same warm-start path, and a hit is a *load*:
everything a scan needs that is a function of (rules, compile options)
is derived once on the cold path and stored -- the transition tables
(carrying the block scanner's sweep program in ``tables.prepared``),
the CAMA placement, and the per-rule facade metadata -- so a process
restart runs neither the parser, the analysis, emission, lowering,
``map_network`` nor the sweep-program build (``RulesetMatcher(cache_dir=...)``, or the CLI ``compile --rules
... --cache-dir ...`` / ``scan --cache-dir ...`` flows).

Two layers share one directory and one pair of helpers
(:func:`save_entry` / :func:`load_entry`), each keyed by the hash of
its own input:

* ``ruleset-<key>.pkl`` -- a :class:`RulesetArtifact`, keyed by
  :func:`ruleset_cache_key` over the ordered ``(rule_id, pattern,
  origin)`` triples, the full option tuple and :data:`CACHE_VERSION`;
* ``triage-<key>.pkl`` -- the rules frontend's triage report
  (:mod:`repro.rules.loader`), keyed by the rule *text*, so a warm
  start from ``.rules`` files does not re-parse them either.

Invalidation is by construction: changing a rule, a compile knob, or
the on-disk format lands on a different file.  Loads are best-effort --
a missing, corrupt, or version-skewed entry is treated as a miss and
the caller recompiles (correctness never depends on the cache).

``cache_dir`` is not trusted: entries are read through an unpickler
that resolves only the classes an entry is made of
(:data:`_ALLOWED_GLOBALS`), so a crafted file naming ``os.system`` --
or anything else off the list -- is a miss with no side effect, never
an import.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TypeVar, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..engine.tables import TransitionTables
    from .mapping import NetworkMapping
    from .passes import OptimizationReport

__all__ = [
    "CACHE_VERSION",
    "RuleMeta",
    "RulesetArtifact",
    "ruleset_cache_key",
    "text_cache_key",
    "artifact_path",
    "save_artifact",
    "load_artifact",
    "save_entry",
    "load_entry",
]

#: Bump whenever the pickled layout (or anything it transitively
#: contains) changes shape; old artifacts then miss cleanly.
#: v2: ``TransitionTables`` gained ``network`` (the reference backend
#: resolves anywhere tables travel) and artifacts record ``backends``.
#: v3: the key hashes each rule's ``file:line`` origin too (skip
#: reasons stored in the artifact carry it, so artifacts compiled with
#: and without provenance must not alias).
#: v4: artifacts carry the ``NetworkMapping`` and, in
#: ``tables.prepared``, the backends' scan programs -- so this number
#: also versions the stored layouts of ``engine.block._BlockProgram`` /
#: ``block_modules.ModulePlan`` and of the mapping dataclasses -- and
#: triage entries share the directory.
#: v5: ``TransitionTables`` carries the report-index table
#: (``report_ids``, ``ste_report_index``, ``module_report_index``) that
#: scanners report against, and ``ModulePlan`` a ``report_index`` in
#: place of its ``report_id`` -- a warm start loads the table.
#: v6: the emitted ``Network`` left both ``TransitionTables`` and the
#: artifact (the ``reference`` oracle recompiles it from the rules), and
#: so did the artifact's ``backends`` list.
CACHE_VERSION = 6

#: Every global an entry's pickle may name, as ``(module, qualname)``:
#: the ``repro`` dataclasses / enums / slot classes entries are made of
#: and nothing else (containers, ints, strings and bytes are pickle
#: opcodes, not globals).  Adding a class to what gets stored means
#: adding it here; ``tests/compiler/test_cache.py`` holds the list
#: against real artifacts.
_ALLOWED_GLOBALS = frozenset(
    {
        ("repro.compiler.cache", "RuleMeta"),
        ("repro.compiler.cache", "RulesetArtifact"),
        ("repro.compiler.mapping", "MappingViolation"),
        ("repro.compiler.mapping", "NetworkMapping"),
        ("repro.compiler.passes", "OptimizationReport"),
        ("repro.engine.block", "_BlockProgram"),
        ("repro.engine.block_modules", "ModulePlan"),
        ("repro.engine.tables", "TransitionTables"),
        ("repro.hardware.cama", "Bank"),
        ("repro.hardware.cama", "ProcessingElement"),
        ("repro.hardware.params", "CamaGeometry"),
        ("repro.rules.loader", "TriageEntry"),
        ("repro.rules.triage", "TriageReport"),
        ("repro.rules.triage", "TriagedRule"),
    }
)


@dataclass(frozen=True)
class RuleMeta:
    """The slice of a compiled pattern the matching facade needs.

    Everything else (ASTs, analysis verdicts, decision maps) is
    recomputable and deliberately left out of the artifact to keep warm
    starts small and fast.
    """

    report_id: str
    source: str
    anchored_end: bool
    matches_empty: bool


@dataclass
class RulesetArtifact:
    """One cache entry: the full warm-start state of a ruleset."""

    version: int
    key: str
    #: carries the block scanner's sweep program in ``tables.prepared``
    tables: "TransitionTables"
    #: CAMA placement of the emitted network (what ``resources()`` and
    #: the energy pricing read)
    mapping: "NetworkMapping"
    rules: list[RuleMeta]
    skipped: list[tuple[str, str]]
    opt_level: int
    optimization: Optional["OptimizationReport"]


def ruleset_cache_key(
    rules: Sequence[tuple],
    *,
    unfold_threshold: float = 0,
    method: str = "hybrid",
    strict_modules: bool = True,
    max_pairs: Optional[int] = None,
    bv_module_size: Optional[int] = None,
    opt_level: int = 0,
) -> str:
    """Deterministic key over the rules and every compile option."""
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_VERSION}".encode())
    hasher.update(
        repr(
            (
                float(unfold_threshold),
                str(method),
                bool(strict_modules),
                max_pairs,
                bv_module_size,
                int(opt_level),
            )
        ).encode()
    )
    for rule in rules:
        rule_id, pattern = rule[0], rule[1]
        origin = rule[2] if len(rule) > 2 else None
        _hash_texts(hasher, (rule_id, pattern, origin or ""))
    return hasher.hexdigest()


def text_cache_key(texts: Iterable[str]) -> str:
    """Deterministic key over an ordered sequence of strings (the
    rules frontend hashes its file labels and rule texts with it)."""
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_VERSION}".encode())
    _hash_texts(hasher, texts)
    return hasher.hexdigest()


def _hash_texts(hasher, texts: Iterable[str]) -> None:
    # length-prefixed framing: in-band separators would let crafted
    # ids/patterns containing the separator bytes collide across
    # structurally different rulesets
    for text in texts:
        blob = text.encode("utf-8", "surrogateescape")
        hasher.update(len(blob).to_bytes(8, "big"))
        hasher.update(blob)


def _entry_path(cache_dir: str, kind: str, key: str) -> str:
    return os.path.join(cache_dir, f"{kind}-{key}.pkl")


def artifact_path(cache_dir: str, key: str) -> str:
    return _entry_path(cache_dir, "ruleset", key)


def save_entry(entry, cache_dir: str, kind: str) -> str:
    """Atomically persist ``entry`` (anything with ``version`` and
    ``key``) as ``<kind>-<key>.pkl``; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    path = _entry_path(cache_dir, kind, entry.key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


class _EntryUnpickler(pickle.Unpickler):
    """Resolves :data:`_ALLOWED_GLOBALS` only (see module docstring)."""

    def find_class(self, module: str, name: str):
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(
                f"cache entry names {module}.{name}, which no entry is made of"
            )
        return super().find_class(module, name)


_Entry = TypeVar("_Entry")


def load_entry(
    cache_dir: str, kind: str, key: str, entry_type: type[_Entry]
) -> Optional[_Entry]:
    """Load ``<kind>-<key>.pkl``; ``None`` on any kind of miss.

    Corrupt pickles, pickles naming anything off the allow-list,
    foreign objects, and version skew all count as misses (the caller
    recomputes and overwrites), never as errors.
    """
    # An unpickled graph is all new and all live: the collections its
    # allocation burst triggers free nothing, and each one walks
    # whatever heap the load happens beside (a hot reload loads next to
    # the ruleset it replaces) -- half the load time at 10k STEs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(_entry_path(cache_dir, kind, key), "rb") as handle:
            entry = _EntryUnpickler(handle).load()
    except Exception:
        # no file, or foreign bytes -- which can raise nearly anything
        # on their way through the unpickler; all of it is a miss
        return None
    finally:
        if collecting:
            gc.enable()
    if not isinstance(entry, entry_type):
        return None
    if entry.version != CACHE_VERSION or entry.key != key:
        return None
    return entry


def save_artifact(artifact: RulesetArtifact, cache_dir: str) -> str:
    """Atomically persist ``artifact``; returns the file path."""
    return save_entry(artifact, cache_dir, "ruleset")


def load_artifact(cache_dir: str, key: str) -> Optional[RulesetArtifact]:
    """Load the artifact for ``key``; ``None`` on any kind of miss."""
    return load_entry(cache_dir, "ruleset", key, RulesetArtifact)
