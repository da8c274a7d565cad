"""Parsed-rule data model for the Snort ingestion frontend.

One :class:`SnortRule` per logical rule line: the header tokens, the
raw option list in source order, and the *payload plan* -- the ordered
:class:`ContentOption` / :class:`PcreOption` elements the translator
turns into one project-dialect regex.  Everything keeps its
:class:`SourceLocation` so triage reports and compile-time skip
reasons can point back at ``file:line``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "SourceLocation",
    "ContentOption",
    "PcreOption",
    "SnortRule",
]


@dataclass(frozen=True)
class SourceLocation:
    """Where a rule came from: file path and 1-based line number.

    >>> str(SourceLocation("local.rules", 12))
    'local.rules:12'
    """

    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass
class ContentOption:
    """One ``content:"..."`` pattern plus the modifiers bound to it.

    ``offset``/``depth`` window the match absolutely from the payload
    start; ``distance``/``within`` window it relative to the end of the
    previous payload element.  ``had_hex`` records whether the source
    spelled any bytes as ``|AA BB|`` hex blocks.
    """

    data: bytes
    negated: bool = False
    nocase: bool = False
    had_hex: bool = False
    offset: Optional[int] = None
    depth: Optional[int] = None
    distance: Optional[int] = None
    within: Optional[int] = None


@dataclass
class PcreOption:
    """One ``pcre:"/.../flags"`` option (delimiters stripped)."""

    pattern: str
    flags: str = ""
    negated: bool = False


@dataclass
class SnortRule:
    """One parsed Snort-style rule.

    ``payload`` holds the match-relevant elements in source order;
    ``options`` keeps every ``(key, value)`` as written (for reporting
    and forward-compat inspection); ``buffers`` lists HTTP/file buffer
    selectors seen anywhere in the rule (``http_uri``, ``file_data``,
    ...), which the translator collapses into the single-payload view.
    """

    action: str
    header: tuple[str, ...]
    options: list[tuple[str, Optional[str]]] = field(default_factory=list)
    payload: list[Union[ContentOption, PcreOption]] = field(default_factory=list)
    buffers: tuple[str, ...] = ()
    sid: Optional[int] = None
    rev: Optional[int] = None
    msg: Optional[str] = None
    location: Optional[SourceLocation] = None
    raw: str = ""

    @property
    def rule_id(self) -> str:
        """Stable rule id: ``sid:N`` when a sid is declared, else the
        ``file:line`` origin (every rule in a file set gets one)."""
        if self.sid is not None:
            return f"sid:{self.sid}"
        if self.location is not None:
            return str(self.location)
        return "rule"

    @property
    def origin(self) -> Optional[str]:
        """``file:line`` provenance string (``None`` if unlocated)."""
        return None if self.location is None else str(self.location)
