r"""Tokenizer/parser for Snort-style rule lines.

Grammar subset (documented in ``docs/RULES.md``): a rule is a header
-- ``action proto src sport direction dst dport`` -- followed by a
parenthesized option list of ``key:value;`` / ``key;`` entries.
Values may be quoted; inside quotes, backslash escapes (``\;``,
``\"``, ``\\``) and ``|AA BB|`` hex blocks follow the Snort lexical
rules.  ``#`` lines are comments and a trailing backslash continues a
rule onto the next physical line.

The parser is deliberately *total over lines*: any malformed line
raises :class:`RuleSyntaxError` with the source location, which the
triage layer turns into a ``rejected`` entry rather than aborting the
whole file.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .content import ContentError, decode_content
from .model import ContentOption, PcreOption, SnortRule, SourceLocation

__all__ = [
    "RuleSyntaxError",
    "parse_rule",
    "split_options",
    "iter_rule_lines",
]

#: header direction operators the grammar accepts
DIRECTIONS = ("->", "<>", "<-")

#: content modifiers that bind to the preceding ``content`` option
_CONTENT_MODIFIERS = frozenset(
    ["nocase", "offset", "depth", "distance", "within", "fast_pattern", "rawbytes"]
)

#: buffer selectors (Snort2 content modifiers / Snort3 sticky
#: buffers); the translator collapses them into the flat payload view
BUFFER_OPTIONS = frozenset(
    [
        "http_uri", "http_raw_uri", "http_header", "http_raw_header",
        "http_client_body", "http_cookie", "http_raw_cookie",
        "http_method", "http_stat_code", "http_stat_msg",
        "file_data", "pkt_data",
    ]
)


class RuleSyntaxError(ValueError):
    """A rule line that does not fit the supported grammar."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.location = location
        #: the bare message, without the location prefix (for callers
        #: that report the origin separately, e.g. triage details)
        self.message = message
        if location is not None:
            message = f"{location}: {message}"
        super().__init__(message)


def iter_rule_lines(text: str, file: str = "<rules>") -> Iterator[tuple[int, str]]:
    r"""Yield ``(line_number, logical_line)`` for each rule candidate.

    Skips blanks and ``#`` comments; joins backslash-continued lines
    (the line number reported is the first physical line's).

    >>> list(iter_rule_lines("# comment\nalert tcp \\\n  (sid:1;)\n"))
    [(2, 'alert tcp  (sid:1;)')]
    """
    pending: list[str] = []
    start_line = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if pending:
            if line.endswith("\\"):
                pending.append(line[:-1])
                continue
            pending.append(line)
            yield start_line, " ".join(pending)
            pending = []
            continue
        if not line or line.startswith("#"):
            continue
        if line.endswith("\\"):
            pending = [line[:-1]]
            start_line = number
            continue
        yield number, line
    if pending:
        yield start_line, " ".join(pending)


def split_options(body: str) -> list[str]:
    r"""Split the option body on top-level ``;`` separators.

    Quote- and escape-aware: separators inside ``"..."`` strings (or
    escaped as ``\;``) do not split.

    >>> split_options('msg:"a;b"; content:"x\\;y"; sid:1;')
    ['msg:"a;b"', 'content:"x\\;y"', 'sid:1']
    """
    options: list[str] = []
    buf: list[str] = []
    in_quotes = False
    escaped = False
    for ch in body:
        if escaped:
            buf.append(ch)
            escaped = False
            continue
        if ch == "\\":
            buf.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            buf.append(ch)
            continue
        if ch == ";" and not in_quotes:
            chunk = "".join(buf).strip()
            if chunk:
                options.append(chunk)
            buf = []
            continue
        buf.append(ch)
    if in_quotes:
        raise RuleSyntaxError("unterminated quoted string in options")
    tail = "".join(buf).strip()
    if tail:
        # Snort requires a trailing ';' on the last option; accept the
        # bare form for hand-written fixtures
        options.append(tail)
    return options


def _split_rule(line: str) -> tuple[str, str]:
    line = line.strip()
    open_paren = line.find("(")
    if open_paren < 0 or not line.endswith(")"):
        raise RuleSyntaxError("rule has no parenthesized option list")
    return line[:open_paren].strip(), line[open_paren + 1 : -1]


def _unquote(value: Optional[str], key: str) -> tuple[bool, str]:
    """Strip optional ``!`` negation and the surrounding quotes."""
    if not value:
        raise RuleSyntaxError(f"{key} needs a quoted value")
    negated = value.startswith("!")
    if negated:
        value = value[1:].strip()
    if len(value) < 2 or not (value.startswith('"') and value.endswith('"')):
        raise RuleSyntaxError(f"{key} value must be quoted, got {value!r}")
    return negated, value[1:-1]


def _int_value(value: Optional[str], key: str) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise RuleSyntaxError(f"{key} needs an integer value, got {value!r}") from None


def _unescape_text(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def parse_rule(line: str, location: Optional[SourceLocation] = None) -> SnortRule:
    r"""Parse one logical rule line into a :class:`SnortRule`.

    >>> rule = parse_rule('alert tcp any any -> any 80 '
    ...                   '(msg:"demo"; content:"GET"; nocase; sid:7;)')
    >>> (rule.sid, rule.payload[0].data, rule.payload[0].nocase)
    (7, b'GET', True)
    """
    try:
        header_part, body = _split_rule(line)
    except RuleSyntaxError as err:
        raise RuleSyntaxError(str(err), location) from None
    tokens = tuple(header_part.split())
    if not tokens:
        raise RuleSyntaxError("missing rule header", location)
    if len(tokens) not in (1, 7):
        raise RuleSyntaxError(
            f"malformed header (expected 1 or 7 tokens, got {len(tokens)})", location
        )
    if len(tokens) == 7 and tokens[4] not in DIRECTIONS:
        raise RuleSyntaxError(f"bad direction operator {tokens[4]!r}", location)

    rule = SnortRule(
        action=tokens[0],
        header=tokens,
        location=location,
        raw=line,
    )
    buffers: list[str] = []
    try:
        raw_options = split_options(body)
    except RuleSyntaxError as err:
        raise RuleSyntaxError(str(err), location) from None

    for raw_opt in raw_options:
        key, sep, value_part = raw_opt.partition(":")
        key = key.strip()
        value: Optional[str] = value_part.strip() if sep else None
        rule.options.append((key, value))
        try:
            _apply_option(rule, buffers, key, value)
        except RuleSyntaxError as err:
            raise RuleSyntaxError(str(err), location) from None
        except ContentError as err:
            raise RuleSyntaxError(f"bad content: {err}", location) from None
    rule.buffers = tuple(buffers)
    return rule


def _last_content(rule: SnortRule, key: str) -> ContentOption:
    for element in reversed(rule.payload):
        if isinstance(element, ContentOption):
            return element
    raise RuleSyntaxError(f"{key} with no preceding content")


def _apply_option(
    rule: SnortRule, buffers: list[str], key: str, value: Optional[str]
) -> None:
    if key == "content":
        negated, text = _unquote(value, key)
        data, had_hex = decode_content(text)
        if not data:
            raise RuleSyntaxError("empty content pattern")
        rule.payload.append(
            ContentOption(data=data, negated=negated, had_hex=had_hex)
        )
    elif key == "pcre":
        negated, text = _unquote(value, key)
        if not text.startswith("/"):
            raise RuleSyntaxError(f"pcre must be /re/flags, got {text!r}")
        close = text.rfind("/")
        if close == 0:
            raise RuleSyntaxError(f"unterminated pcre {text!r}")
        rule.payload.append(
            PcreOption(
                pattern=text[1:close], flags=text[close + 1 :], negated=negated
            )
        )
    elif key in _CONTENT_MODIFIERS:
        content = _last_content(rule, key)
        if key == "nocase":
            content.nocase = True
        elif key in ("fast_pattern", "rawbytes"):
            # a prefilter hint and a raw-payload selector: neither
            # changes what matches (our payload view is already raw)
            pass
        else:
            setattr(content, key, _int_value(value, key))
    elif key in BUFFER_OPTIONS:
        buffers.append(key)
    elif key == "sid":
        rule.sid = _int_value(value, key)
    elif key == "rev":
        rule.rev = _int_value(value, key)
    elif key == "msg":
        _, text = _unquote(value, key)
        rule.msg = _unescape_text(text)
    # every other option (flow, classtype, metadata, byte_test, ...) is
    # kept verbatim in rule.options; the translator decides which of
    # them make the rule untranslatable
