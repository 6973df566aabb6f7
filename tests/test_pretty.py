"""P4 pretty-printer tests."""

from repro.p4 import count_loc, format_expr, ir, render
from repro.p4.programs import l2_port_forwarding, source_routing


def test_format_const():
    assert format_expr(ir.Const(5, 8)) == "8w5"
    assert format_expr(ir.Const(5, 32)) == "5"


def test_format_field_and_valid():
    assert format_expr(ir.FieldRef("hdr.ipv4.ttl")) == "hdr.ipv4.ttl"
    assert format_expr(ir.ValidRef("ipv4")) == "hdr.ipv4.isValid()"


def test_format_nested_expression():
    expr = ir.BinExpr("&&",
                      ir.BinExpr("==", ir.FieldRef("a"), ir.Const(1, 8)),
                      ir.UnExpr("!", ir.FieldRef("b")))
    assert format_expr(expr) == "((a == 8w1) && !(b))"


def test_format_absdiff_and_minmax():
    expr = ir.BinExpr("absdiff", ir.FieldRef("a"), ir.FieldRef("b"), 32)
    assert format_expr(expr) == "abs_diff(a, b)"
    assert format_expr(ir.BinExpr("min", ir.FieldRef("a"),
                                  ir.FieldRef("b"))) == "min(a, b)"


def test_render_l2_program_structure():
    text = render(l2_port_forwarding())
    assert "header ethernet_t" in text
    assert "struct headers_t" in text
    assert "table fwd_table" in text
    assert "fwd_table.apply();" in text
    assert "parser l2fwdParser" in text
    assert "control l2fwdDeparser" in text


def test_render_source_routing_includes_stack_comment():
    text = render(source_routing())
    assert "srcRoute" in text
    assert "transition select" in text


def test_render_is_deterministic():
    assert render(l2_port_forwarding()) == render(l2_port_forwarding())


def test_count_loc_skips_blank_and_comment_lines():
    text = "// comment\n\ncode();\n  // another\nmore();\n"
    assert count_loc(text) == 2


def test_apply_with_hit_body_renders_as_if():
    program = l2_port_forwarding()
    program.ingress = [ir.ApplyTable("fwd_table",
                                     hit_body=[ir.MarkToDrop()])]
    text = render(program)
    assert "if (fwd_table.apply().hit)" in text


def test_action_params_render_bare_in_every_statement():
    program = l2_port_forwarding()
    program.metadata = [("x", 32)]
    program.add_register(ir.RegisterDef("r", 32, 8))
    body = [ir.RegisterWrite("r", ir.FieldRef("param.idx"),
                             ir.FieldRef("param.v")),
            ir.Digest("d", [ir.FieldRef("param.v")]),
            ir.AssignStmt("meta.x", ir.FieldRef("param.v"))]
    program.add_action(ir.Action("a", [("idx", 32), ("v", 32)], body))
    program.add_table(ir.Table("t", actions=["a"]))
    program.ingress.append(ir.ApplyTable("t"))
    text = render(program)
    assert "r.write(idx, v);" in text
    assert "digest<d_t>(1, { v });" in text
    assert "meta.x = v;" in text
    assert "param." not in text
    # The action's own body is shared with the engines: left as it was.
    assert body[0].index == ir.FieldRef("param.idx")


def test_registers_render_in_ingress():
    program = l2_port_forwarding()
    program.add_register(ir.RegisterDef("r0", 32, 8))
    text = render(program)
    assert "register<bit<32>>(8) r0;" in text
