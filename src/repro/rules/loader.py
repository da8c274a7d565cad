"""Load ``.rules`` files end-to-end: parse, triage, compile.

The one-stop entry points:

* :func:`load_rules_text` -- rule text to a :class:`LoadedRuleset`
  (doctest-friendly);
* :func:`load_rules` -- same over one or many files on disk (read
  eagerly: a missing file raises here);
* :meth:`LoadedRuleset.compile` -- feed the accepted rules into
  :class:`~repro.matching.RulesetMatcher` (sharing the sha256
  persistent cache via ``cache_dir``) and fold any compile-level skips
  back into the triage report, so the final report accounts for 100%
  of the ingested rules.

A :class:`LoadedRuleset` holds the rule text; its triage
(:attr:`~LoadedRuleset.report`, :attr:`~LoadedRuleset.rules`) is
computed on first access -- bad rules become ``rejected`` rows, never
exceptions, so deferring it moves no error.  That lets
``compile(cache_dir=...)`` keep the triage in the cache too: beside the
``ruleset-<key>.pkl`` artifact the directory gets a
``triage-<key>.pkl`` entry keyed by the sha256 of the file labels and
rule texts, written when a compile had to triage and loaded -- in place
of parsing and translating every rule again -- by every later compile
of the same text, whatever its compile options.

>>> loaded = load_rules_text('''
... alert tcp any any -> any 80 (msg:"probe"; content:"GET /admin"; sid:1;)
... alert tcp any any -> any any (pcre:"/(x)\\\\1/"; sid:2;)
... ''')
>>> loaded.report.counts
{'compiled': 1, 'rewritten': 0, 'rejected': 1}
>>> loaded.rules
[('sid:1', 'GET /admin', '<rules>:2')]
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from ..compiler.cache import CACHE_VERSION, load_entry, save_entry, text_cache_key
from .model import SourceLocation
from .parser import RuleSyntaxError, iter_rule_lines, parse_rule
from .triage import TriagedRule, TriageReport, triage_rule, triage_rules

__all__ = ["LoadedRuleset", "load_rules", "load_rules_text"]


@dataclass
class TriageEntry:
    """The cached triage of one set of rule texts (``triage-<key>.pkl``)."""

    version: int
    key: str
    report: TriageReport


@dataclass
class LoadedRuleset:
    """Rule text ready to triage and compile."""

    #: one rule text per entry of ``files``
    texts: tuple[str, ...]
    files: tuple[str, ...]
    _report: Optional[TriageReport] = field(default=None, repr=False, compare=False)

    @property
    def report(self) -> TriageReport:
        """Every rule's triage verdict (computed on first access)."""
        if self._report is None:
            self._report = self._triage()
        return self._report

    def _triage(self) -> TriageReport:
        triaged: list[TriagedRule] = []
        for text, file in zip(self.texts, self.files):
            triaged.extend(_triage_text(text, file))
        return triage_rules(triaged)

    @property
    def rules(self) -> list[tuple[str, str, Optional[str]]]:
        """Accepted rules as sourced ``(rule_id, pattern, origin)``
        triples -- feed these to :class:`~repro.matching.RulesetMatcher`
        or :func:`~repro.compiler.pipeline.compile_ruleset` directly."""
        return self.report.patterns()

    def compile(self, cache_dir: Optional[str] = None, **options):
        """Compile the accepted rules; returns ``(matcher, report)``.

        The matcher is a :class:`~repro.matching.RulesetMatcher`
        (``cache_dir`` enables the persistent cache: the compiled
        artifact, and this text's triage entry); the report is this
        load's triage with compile-level skips folded in via
        :meth:`TriageReport.with_compile_skips`, so every rule is
        still classified after compilation.  The matcher's
        ``compile_info`` includes the triage work done here.
        """
        from ..matching import RulesetMatcher, merge_compile_infos, timed_phase

        start = time.perf_counter()
        phases: dict[str, float] = {}
        if self._report is None and cache_dir is not None:
            key = text_cache_key(
                part
                for file, text in zip(self.files, self.texts)
                for part in (_label(file), text)
            )
            with timed_phase(phases, "load"):
                entry = load_entry(cache_dir, "triage", key, TriageEntry)
            if entry is None:
                with timed_phase(phases, "triage"):
                    entry = TriageEntry(CACHE_VERSION, key, self._triage())
                with timed_phase(phases, "save"):
                    save_entry(entry, cache_dir, "triage")
            self._report = entry.report
        elif self._report is None:
            with timed_phase(phases, "triage"):
                self._report = self._triage()
        rules = self.rules
        triage_seconds = time.perf_counter() - start
        matcher = RulesetMatcher(rules, cache_dir=cache_dir, **options)
        if phases:
            # one account of the whole set-up: the triage layer's share
            # merged into the matcher's
            info = matcher.compile_info
            matcher.compile_info = merge_compile_infos(
                [replace(info, seconds=triage_seconds, phases=phases), info]
            )
        return matcher, self.report.with_compile_skips(matcher.skipped)


def _label(file: str) -> str:
    """How ``file`` appears in ``file:line`` origins."""
    return os.path.basename(file) if file != "<rules>" else file


def _triage_text(text: str, file: str) -> list[TriagedRule]:
    triaged: list[TriagedRule] = []
    label = _label(file)
    for line_number, line in iter_rule_lines(text, file=file):
        location = SourceLocation(label, line_number)
        try:
            rule = parse_rule(line, location=location)
        except RuleSyntaxError as err:
            triaged.append(
                TriagedRule(
                    rule_id=str(location),
                    status="rejected",
                    reason="syntax-error",
                    detail=err.message,
                    origin=str(location),
                )
            )
            continue
        triaged.append(triage_rule(rule))
    return triaged


def load_rules_text(text: str, file: str = "<rules>") -> LoadedRuleset:
    """Triage Snort-style rule text without touching the filesystem.

    >>> loaded = load_rules_text(
    ...     'alert tcp any any -> any 80 (content:"GET"; nocase; sid:9;)')
    >>> loaded.report.counts
    {'compiled': 0, 'rewritten': 1, 'rejected': 0}
    >>> loaded.rules
    [('sid:9', '(?i:GET)', '<rules>:1')]
    """
    return LoadedRuleset(texts=(text,), files=(file,))


def load_rules(paths: Union[str, Iterable[str]]) -> LoadedRuleset:
    """Read one or many ``.rules`` files for triage.

    Accepts a single path or an iterable of paths; rules from all
    files share one id namespace (duplicate sids across files are
    rejected with ``duplicate-id``, first occurrence wins).  The files
    are read here; the triage runs on first access.
    """
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    files = tuple(os.fspath(path) for path in paths)
    texts = []
    for path in files:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            texts.append(handle.read())
    return LoadedRuleset(texts=tuple(texts), files=files)
