"""Parser unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.indus import ast
from repro.indus.errors import ParseError
from repro.indus.parser import (_PRECEDENCE, BUILTIN_FUNCTIONS, parse,
                                parse_expression)
from repro.indus.printer import ast_equal, format_expr
from repro.indus.types import (ArrayType, BitType, BoolType, DictType,
                               SetType, TupleType)

EMPTY_BLOCKS = "{ } { } { }"


def parse_with_decls(decls):
    return parse(decls + "\n" + EMPTY_BLOCKS)


# ---------------------------------------------------------------------------
# Declarations and types
# ---------------------------------------------------------------------------

def test_minimal_program_has_three_blocks():
    program = parse(EMPTY_BLOCKS)
    assert program.init_block == []
    assert program.tele_block == []
    assert program.check_block == []


def test_missing_block_is_an_error():
    with pytest.raises(ParseError):
        parse("{ } { }")


def test_extra_block_is_an_error():
    with pytest.raises(ParseError):
        parse("{ } { } { } { }")


def test_tele_declaration():
    program = parse_with_decls("tele bit<8> tenant;")
    decl = program.decl("tenant")
    assert decl.kind is ast.VarKind.TELE
    assert decl.ty == BitType(8)


def test_declaration_with_initializer():
    program = parse_with_decls("tele bool violated = false;")
    decl = program.decl("violated")
    assert isinstance(decl.init, ast.BoolLit)
    assert decl.init.value is False


def test_array_type():
    program = parse_with_decls("tele bit<32>[15] loads;")
    assert program.decl("loads").ty == ArrayType(BitType(32), 15)


def test_dict_type_with_nested_closing_angle():
    # "bit<8>>" produces a ">>" token the parser must split.
    program = parse_with_decls("control dict<bit<8>,bit<8>> tenants;")
    assert program.decl("tenants").ty == DictType(BitType(8), BitType(8))


def test_dict_with_tuple_key():
    program = parse_with_decls(
        "control dict<(bit<32>,bit<32>),bool> allowed;")
    ty = program.decl("allowed").ty
    assert ty == DictType(TupleType((BitType(32), BitType(32))), BoolType())


def test_set_type():
    program = parse_with_decls("control set<bit<8>> ports;")
    assert program.decl("ports").ty == SetType(BitType(8), 64)


def test_set_type_with_capacity():
    program = parse_with_decls("control set<bit<8>, 16> ports;")
    assert program.decl("ports").ty == SetType(BitType(8), 16)


def test_untyped_control_scalar_defaults_to_bit32():
    program = parse_with_decls("control thresh;")
    assert program.decl("thresh").ty == BitType(32)


def test_untyped_non_control_declaration_rejected():
    with pytest.raises(ParseError):
        parse_with_decls("tele thresh;")


def test_header_annotation():
    program = parse_with_decls("header bit<32> src @ ipv4.src_addr;")
    assert program.decl("src").annotation == "ipv4.src_addr"


def test_zero_width_bit_type_rejected():
    with pytest.raises(ParseError):
        parse_with_decls("tele bit<0> x;")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def first_init_stmt(body):
    program = parse(f"tele bit<8> x;\ntele bit<8>[4] xs;\n"
                    f"{{ {body} }} {{ }} {{ }}")
    return program.init_block[0]


def test_assignment():
    stmt = first_init_stmt("x = 4;")
    assert isinstance(stmt, ast.Assign)
    assert isinstance(stmt.target, ast.Var)


def test_indexed_assignment():
    stmt = first_init_stmt("xs[2] = 4;")
    assert isinstance(stmt.target, ast.Index)


def test_augmented_assignment():
    stmt = first_init_stmt("x += 1;")
    assert isinstance(stmt, ast.AugAssign)
    assert stmt.op is ast.BinaryOp.ADD


def test_push_statement():
    stmt = first_init_stmt("xs.push(x);")
    assert isinstance(stmt, ast.Push)


def test_unknown_method_rejected():
    with pytest.raises(ParseError):
        first_init_stmt("xs.pop();")


def test_pass_reject_report():
    program = parse("{ pass; } { report; } { reject; report(1); }")
    assert isinstance(program.init_block[0], ast.Pass)
    assert isinstance(program.tele_block[0], ast.Report)
    assert program.tele_block[0].payload is None
    assert isinstance(program.check_block[0], ast.Reject)
    assert program.check_block[1].payload is not None


def test_if_elsif_else_chain():
    stmt = first_init_stmt(
        "if (x == 1) { pass; } elsif (x == 2) { pass; } else { pass; }")
    assert isinstance(stmt, ast.If)
    assert len(stmt.arms) == 2
    assert len(stmt.orelse) == 1


def test_else_if_sugar():
    stmt = first_init_stmt(
        "if (x == 1) { pass; } else if (x == 2) { pass; }")
    assert len(stmt.arms) == 2


def test_for_loop():
    stmt = first_init_stmt("for (v in xs) { pass; }")
    assert isinstance(stmt, ast.For)
    assert stmt.names == ["v"]


def test_multi_variable_for_loop():
    program = parse(
        "tele bit<8>[4] a;\ntele bit<8>[4] b;\n"
        "{ for (u, v in a, b) { pass; } } { } { }")
    stmt = program.init_block[0]
    assert stmt.names == ["u", "v"]
    assert len(stmt.iterables) == 2


def test_for_loop_arity_mismatch():
    with pytest.raises(ParseError):
        parse("tele bit<8>[4] a;\n{ for (u, v in a) { } } { } { }")


def test_missing_semicolon():
    with pytest.raises(ParseError):
        first_init_stmt("x = 4")


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse("{ x = 4;")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def test_precedence_arithmetic_over_comparison():
    expr = parse_expression("a + b * c == d")
    assert isinstance(expr, ast.Binary) and expr.op is ast.BinaryOp.EQ
    left = expr.left
    assert left.op is ast.BinaryOp.ADD
    assert left.right.op is ast.BinaryOp.MUL


def test_precedence_comparison_over_logical():
    expr = parse_expression("a == b && c != d")
    assert expr.op is ast.BinaryOp.AND
    assert expr.left.op is ast.BinaryOp.EQ


def test_or_binds_looser_than_and():
    expr = parse_expression("a || b && c")
    assert expr.op is ast.BinaryOp.OR
    assert expr.right.op is ast.BinaryOp.AND


def test_unary_operators():
    expr = parse_expression("!a")
    assert isinstance(expr, ast.Unary) and expr.op is ast.UnaryOp.NOT
    expr = parse_expression("~a")
    assert expr.op is ast.UnaryOp.BNOT
    expr = parse_expression("-a")
    assert expr.op is ast.UnaryOp.NEG


def test_in_operator():
    expr = parse_expression("x in xs")
    assert isinstance(expr, ast.InExpr)


def test_tuple_expression():
    expr = parse_expression("(a, b, c)")
    assert isinstance(expr, ast.TupleExpr)
    assert len(expr.items) == 3


def test_parenthesized_single_expression_is_not_a_tuple():
    expr = parse_expression("(a)")
    assert isinstance(expr, ast.Var)


def test_index_chains():
    expr = parse_expression("m[(a, b)]")
    assert isinstance(expr, ast.Index)
    assert isinstance(expr.index, ast.TupleExpr)


def test_builtin_calls():
    expr = parse_expression("abs(a - b)")
    assert isinstance(expr, ast.Call) and expr.func == "abs"
    expr = parse_expression("length(xs)")
    assert expr.func == "length"
    expr = parse_expression("max(a, b)")
    assert len(expr.args) == 2


def test_non_builtin_call_is_not_a_call():
    # Only builtin names parse as calls; anything else is an error when
    # followed by parentheses in expression position.
    with pytest.raises(ParseError):
        parse_expression("frobnicate(a)")


def test_trailing_tokens_after_expression_rejected():
    with pytest.raises(ParseError):
        parse_expression("a b")


def test_shift_operators_parse():
    expr = parse_expression("a << 2 | b >> 3")
    assert expr.op is ast.BinaryOp.BOR


def test_figure_programs_parse():
    from repro.properties import load_source, property_names

    for name in property_names():
        parse(load_source(name))  # must not raise


# ---------------------------------------------------------------------------
# Precedence: generated trees round-trip through both renderings
# ---------------------------------------------------------------------------
# The oracle cannot see a front-end bug: its compiler, both engines and
# the reference monitor all read one parse of each scenario.  So the
# precedence climb is held to trees it did not build.

#: Every binary operator, ``in`` included (an ``InExpr``, not a Binary).
_BINARY = [*ast.BinaryOp, "in"]


def _binary(op, left, right):
    if op == "in":
        return ast.InExpr(item=left, container=right)
    return ast.Binary(op=op, left=left, right=right)


_LEAVES = st.one_of(
    st.integers(0, 2**32).map(lambda v: ast.IntLit(value=v)),
    st.booleans().map(lambda v: ast.BoolLit(value=v)),
    st.sampled_from(["a", "b", "tele_x", "length"]).map(
        lambda name: ast.Var(name=name)))


def _compound(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from(_BINARY), children, children),
        st.builds(lambda op, operand: ast.Unary(op=op, operand=operand),
                  st.sampled_from(ast.UnaryOp), children),
        st.builds(lambda base, index: ast.Index(base=base, index=index),
                  children, children),
        st.builds(lambda func, args: ast.Call(func=func, args=args),
                  st.sampled_from(BUILTIN_FUNCTIONS),
                  st.lists(children, max_size=3)))


EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=16)


def parenthesised(expr):
    """``expr`` with every compound subexpression in parentheses."""
    if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.Var)):
        return format_expr(expr)
    if isinstance(expr, ast.Binary):
        return (f"({parenthesised(expr.left)} {expr.op.value} "
                f"{parenthesised(expr.right)})")
    if isinstance(expr, ast.InExpr):
        return f"({parenthesised(expr.item)} in {parenthesised(expr.container)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op.value}{parenthesised(expr.operand)})"
    if isinstance(expr, ast.Index):
        return f"({parenthesised(expr.base)}[{parenthesised(expr.index)}])"
    return f"{expr.func}({', '.join(map(parenthesised, expr.args))})"


def test_every_binary_level_is_generated():
    assert set(ast.BinaryOp) == {op for level in _PRECEDENCE
                                 for op in level.values() if op}


def assert_round_trips(expr):
    for text in (parenthesised(expr), format_expr(expr)):
        assert ast_equal(parse_expression(text), expr), text


@pytest.mark.parametrize("outer", _BINARY, ids=str)
def test_every_pair_of_operators_nests_both_ways(outer):
    a, b, c = (ast.Var(name=name) for name in "abc")
    for inner in _BINARY:
        assert_round_trips(_binary(outer, _binary(inner, a, b), c))
        assert_round_trips(_binary(outer, a, _binary(inner, b, c)))
    for op in ast.UnaryOp:
        assert_round_trips(ast.Unary(op=op, operand=_binary(outer, a, b)))
        assert_round_trips(_binary(outer, ast.Unary(op=op, operand=a), b))
        assert_round_trips(_binary(outer, a, ast.Unary(op=op, operand=b)))


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_both_renderings_parse_back_to_the_tree(expr):
    assert_round_trips(expr)
