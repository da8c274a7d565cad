"""Rule-line tokenizer/parser unit tests."""

import pytest

from repro.rules.model import ContentOption, PcreOption, SourceLocation
from repro.rules.parser import (
    RuleSyntaxError,
    iter_rule_lines,
    parse_rule,
    split_options,
)
from repro.rules.translate import translate_rule

RULE = (
    'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
    '(msg:"demo; with semicolon"; flow:to_server,established; '
    'content:"GET /admin"; nocase; offset:4; depth:20; '
    'pcre:"/evil[0-9]{1,3}/iR"; classtype:web-application-attack; '
    'sid:31337; rev:2;)'
)


class TestSplitOptions:
    def test_quoted_semicolons_do_not_split(self):
        assert split_options('msg:"a;b"; sid:1;') == ['msg:"a;b"', "sid:1"]

    def test_escaped_semicolons_do_not_split(self):
        assert split_options(r'content:"a\;b"; sid:1;') == [
            r'content:"a\;b"', "sid:1",
        ]

    def test_unterminated_quote_raises(self):
        with pytest.raises(RuleSyntaxError):
            split_options('msg:"open; sid:1;')

    def test_valueless_options(self):
        assert split_options("nocase; sid:1;") == ["nocase", "sid:1"]


class TestHeader:
    def test_full_header(self):
        rule = parse_rule(RULE)
        assert rule.action == "alert"
        assert rule.header == (
            "alert", "tcp", "$EXTERNAL_NET", "any", "->", "$HOME_NET", "80",
        )

    def test_bidirectional_operator(self):
        rule = parse_rule('alert tcp any any <> any any (sid:1;)')
        assert rule.header[4] == "<>"

    def test_bad_direction_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("alert tcp any any any any any (sid:1;)")

    def test_missing_parens_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("alert tcp any any -> any any sid:1")


class TestOptions:
    def test_content_modifiers_bind_to_preceding_content(self):
        rule = parse_rule(RULE)
        content = rule.payload[0]
        assert isinstance(content, ContentOption)
        assert content.data == b"GET /admin"
        assert content.nocase and content.offset == 4 and content.depth == 20

    def test_fast_pattern_is_accepted_and_changes_nothing(self):
        fast = parse_rule(RULE.replace("depth:20;", "depth:20; fast_pattern;"))
        assert translate_rule(fast).pattern == translate_rule(parse_rule(RULE)).pattern

    def test_pcre_split_into_body_and_flags(self):
        rule = parse_rule(RULE)
        pcre = rule.payload[1]
        assert isinstance(pcre, PcreOption)
        assert pcre.pattern == "evil[0-9]{1,3}"
        assert pcre.flags == "iR"

    def test_metadata_extracted(self):
        rule = parse_rule(RULE)
        assert rule.sid == 31337
        assert rule.rev == 2
        assert rule.msg == "demo; with semicolon"
        assert rule.rule_id == "sid:31337"

    def test_negated_content(self):
        rule = parse_rule('alert tcp any any -> any any (content:!"x"; sid:1;)')
        assert rule.payload[0].negated

    def test_modifier_without_content_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("alert tcp any any -> any any (nocase; sid:1;)")

    def test_unknown_options_preserved_verbatim(self):
        rule = parse_rule(
            'alert tcp any any -> any any (content:"x"; byte_test:4,>,1,0; sid:1;)'
        )
        assert ("byte_test", "4,>,1,0") in rule.options

    def test_buffer_selectors_collected(self):
        rule = parse_rule(
            'alert tcp any any -> any any (content:"/x"; http_uri; sid:1;)'
        )
        assert rule.buffers == ("http_uri",)

    def test_bad_integer_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule('alert tcp any any -> any any (content:"x"; offset:abc;)')

    def test_location_threaded_into_errors(self):
        location = SourceLocation("unit.rules", 3)
        with pytest.raises(RuleSyntaxError, match="unit.rules:3"):
            parse_rule("garbage", location=location)


class TestIterRuleLines:
    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nalert tcp any any -> any any (sid:1;)\n"
        assert [n for n, _ in iter_rule_lines(text)] == [3]

    def test_continuation_lines_joined(self):
        text = "alert tcp any any -> any any \\\n (sid:1;)\nalert udp any any -> any any (sid:2;)\n"
        lines = list(iter_rule_lines(text))
        assert lines[0][0] == 1
        assert "sid:1" in lines[0][1] and "\\" not in lines[0][1]
        assert lines[1] == (3, "alert udp any any -> any any (sid:2;)")
