"""Lexer unit tests."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.properties
from repro.difftest import gen_scenario
from repro.indus.errors import LexError, SourceSpan
from repro.indus.lexer import tokenize
from repro.indus.tokens import KEYWORDS, TokenKind

BUNDLED = sorted([*Path(repro.properties.__file__).parent.glob("*.indus"),
                  *(Path(__file__).parents[1] / "examples").glob("*.indus")])


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


def test_identifiers_and_keywords():
    assert kinds("tele sensor control header local foo") == [
        TokenKind.TELE, TokenKind.SENSOR, TokenKind.CONTROL,
        TokenKind.HEADER, TokenKind.LOCAL, TokenKind.IDENT,
    ]


def test_keywords_are_not_prefix_matched():
    # "telemetry" starts with "tele" but is a plain identifier.
    tokens = tokenize("telemetry")
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].text == "telemetry"


def test_decimal_literal():
    token = tokenize("1234")[0]
    assert token.kind is TokenKind.INT
    assert token.value == 1234


def test_hex_literal():
    assert tokenize("0xFF")[0].value == 255
    assert tokenize("0x88B5")[0].value == 0x88B5


def test_binary_literal():
    assert tokenize("0b1010")[0].value == 10


def test_underscore_separators_in_literals():
    assert tokenize("1_000_000")[0].value == 1000000


def test_malformed_hex_literal_rejected():
    with pytest.raises(LexError):
        tokenize("0x")


def test_trailing_letter_after_literal_rejected():
    with pytest.raises(LexError):
        tokenize("123abc")


def test_booleans():
    assert kinds("true false") == [TokenKind.TRUE, TokenKind.FALSE]


def test_line_comment_skipped():
    assert kinds("a // comment with symbols +-*/\nb") == [
        TokenKind.IDENT, TokenKind.IDENT,
    ]


def test_block_comment_skipped():
    assert kinds("a /* multi\nline\ncomment */ b") == [
        TokenKind.IDENT, TokenKind.IDENT,
    ]


def test_nested_stars_in_block_comment():
    assert kinds("/* ** * */ x") == [TokenKind.IDENT]


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_two_char_operators():
    assert kinds("== != <= >= && || << >> += -=") == [
        TokenKind.EQ, TokenKind.NEQ, TokenKind.LE, TokenKind.GE,
        TokenKind.AND, TokenKind.OR, TokenKind.SHL, TokenKind.SHR,
        TokenKind.PLUS_ASSIGN, TokenKind.MINUS_ASSIGN,
    ]


def test_single_char_operators():
    assert kinds("+ - * / % ~ & | ^ < > ! = @ . , ;") == [
        TokenKind.PLUS, TokenKind.MINUS, TokenKind.STAR, TokenKind.SLASH,
        TokenKind.PERCENT, TokenKind.TILDE, TokenKind.AMP, TokenKind.PIPE,
        TokenKind.CARET, TokenKind.LT, TokenKind.GT, TokenKind.NOT,
        TokenKind.ASSIGN, TokenKind.AT, TokenKind.DOT, TokenKind.COMMA,
        TokenKind.SEMI,
    ]


def test_maximal_munch_prefers_long_operators():
    # "<<=" lexes as "<<" then "="; "===" as "==" then "=".
    assert kinds("<<=") == [TokenKind.SHL, TokenKind.ASSIGN]
    assert kinds("===") == [TokenKind.EQ, TokenKind.ASSIGN]


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("$")


def test_spans_track_lines_and_columns():
    tokens = tokenize("a\n  b")
    assert tokens[0].span.line == 1 and tokens[0].span.column == 1
    assert tokens[1].span.line == 2 and tokens[1].span.column == 3


def test_brackets_and_braces():
    assert kinds("{ } ( ) [ ]") == [
        TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.LPAREN,
        TokenKind.RPAREN, TokenKind.LBRACKET, TokenKind.RBRACKET,
    ]


def test_full_figure1_program_lexes():
    source = """
    control dict<bit<8>,bit<8>> tenants;
    tele bit<8> tenant;
    { tenant = tenants[in_port]; }
    { }
    { if (tenant != tenants[eg_port]) { reject; } }
    """
    tokens = tokenize(source)
    assert tokens[-1].kind is TokenKind.EOF
    assert TokenKind.DICT in [t.kind for t in tokens]


# ---------------------------------------------------------------------------
# The lexical grammar is ASCII
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, char, column", [
    ("tele bit<8> é;", "é", 13),   # not a P4-16 identifier either
    ("x = ²;", "²", 5),            # str.isdigit, but no digit of ours
    ("x = ٣;", "٣", 5),
    ("aé", "é", 2),                # an identifier stops at its last ASCII
    ("1é", "é", 2),                # character, and so does a literal
])
def test_the_lexical_grammar_is_ascii(source, char, column):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.message == f"unexpected character {char!r}"
    assert info.value.span == SourceSpan(1, column, 1, column + 1)


def test_a_zero_at_the_end_of_the_input_is_a_literal():
    # Not a "0x" prefix whose "x" is missing.
    assert [(t.kind, t.value) for t in tokenize("x = 0")][2] == \
        (TokenKind.INT, 0)


# ---------------------------------------------------------------------------
# Spans slice the source
# ---------------------------------------------------------------------------

def assert_spans_slice(source):
    """Every token's span cuts exactly its text out of ``source``; EOF
    sits just past the last character."""
    lines = source.split("\n")
    tokens = tokenize(source)
    for token in tokens[:-1]:
        line, column, end_line, end_column = token.span
        assert end_line == line, token
        assert lines[line - 1][column - 1:end_column - 1] == token.text, token
    end = len(lines[-1]) + 1
    assert tokens[-1].span == SourceSpan(len(lines), end, len(lines), end)
    return tokens


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.name)
def test_spans_slice_every_bundled_program(path):
    assert_spans_slice(path.read_text())


def test_spans_slice_the_oracles_programs():
    for seed in range(300):
        assert_spans_slice(gen_scenario(seed).source())


_WORDS = ["x", "_t0", "telemetry", "abs", *KEYWORDS]
_NUMBERS = ["0", "7", "1_000", "0x1F", "0XaB_c", "0b101", "0B1_0"]
_OPERATORS = [kind.value for kind in TokenKind if not kind.value[0].isalpha()]
# Each starts with a blank, so no separator glues onto a "/" before it.
_TRIVIA = [" ", "\t", "\n", "\r\n", " // note */ /*\n", " //\r\n",
           " /* one\n two\r\n\tthree */ ", " /**/ ", " /* ** / * */\t"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TRIVIA),
                          st.sampled_from(_WORDS + _NUMBERS + _OPERATORS)),
                max_size=40),
       st.sampled_from(["", *_TRIVIA]))
def test_spans_slice_interleaved_comments_tabs_and_crlf(pairs, tail):
    source = "".join(trivia + text for trivia, text in pairs) + tail
    tokens = assert_spans_slice(source)
    assert [t.text for t in tokens[:-1]] == [text for _, text in pairs]


def test_the_eof_span():
    assert tokenize("")[0].span == SourceSpan(1, 1, 1, 1)
    assert tokenize("a\n  b\t ")[-1].span == SourceSpan(2, 6, 2, 6)
    assert tokenize("a\r\n")[-1].span == SourceSpan(2, 1, 2, 1)


@pytest.mark.parametrize("source, message, span", [
    ("x = 1;\n  y $", "unexpected character '$'", SourceSpan(2, 5, 2, 6)),
    ("x =\n 0x;", "malformed integer literal '0x'", SourceSpan(2, 2, 2, 4)),
    ("x = 12ab;", "invalid character 'a' after integer literal",
     SourceSpan(1, 5, 1, 7)),
    # An unterminated comment runs from its opener to the EOF position.
    ("a\n  /* open\n still", "unterminated block comment",
     SourceSpan(2, 3, 3, 7)),
    ("a /* open", "unterminated block comment", SourceSpan(1, 3, 1, 10)),
])
def test_error_spans(source, message, span):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert (info.value.message, info.value.span) == (message, span)
