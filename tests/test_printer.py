"""Indus pretty-printer tests: canonical output and round-tripping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.difftest.genprog import gen_program
from repro.indus import check, parse
from repro.indus.printer import format_expr, format_program
from repro.indus.parser import parse_expression
from repro.properties import load_source, property_names


def roundtrips(source):
    original = parse(source)
    printed = format_program(original)
    reparsed = parse(printed)
    return original == reparsed, printed


@pytest.mark.parametrize("name", property_names())
def test_all_properties_roundtrip(name):
    ok, printed = roundtrips(load_source(name))
    assert ok, f"round-trip changed the AST:\n{printed}"


def test_printed_output_typechecks():
    for name in property_names():
        printed = format_program(parse(load_source(name)))
        check(parse(printed))  # must not raise


def test_expr_precedence_minimal_parens():
    expr = parse_expression("a + b * c")
    assert format_expr(expr) == "a + b * c"
    expr = parse_expression("(a + b) * c")
    assert format_expr(expr) == "(a + b) * c"


def test_left_associativity_preserved():
    expr = parse_expression("a - b - c")
    text = format_expr(expr)
    assert parse_expression(text) == expr
    expr = parse_expression("a - (b - c)")
    text = format_expr(expr)
    assert parse_expression(text) == expr
    assert "(" in text


def test_logical_and_comparison_mix():
    for source in ("a == b && c != d", "!(a && b) || c",
                   "x in xs && y in ys", "a < b == (c > d)"):
        expr = parse_expression(source)
        assert parse_expression(format_expr(expr)) == expr, source


def test_format_decl_forms():
    source = ("tele bit<8> x = 3;\n"
              "control dict<(bit<32>, bit<16>), bool> d;\n"
              "header bit<32> s @ ipv4.src_addr;\n"
              "{ } { } { }")
    printed = format_program(parse(source))
    assert "tele bit<8> x = 3;" in printed
    assert "dict<(bit<32>, bit<16>), bool> d;" in printed
    assert "@ ipv4.src_addr;" in printed


def test_if_elsif_else_shape():
    source = ("tele bit<8> x;\n"
              "{ if (x == 1) { x = 2; } elsif (x == 2) { x = 3; } "
              "else { x = 4; } } { } { }")
    ok, printed = roundtrips(source)
    assert ok
    assert "elsif" in printed and "else {" in printed


@given(seed=st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_generated_programs_roundtrip(seed):
    source = gen_program(seed)
    ok, printed = roundtrips(source)
    assert ok, printed
