"""Engine unit tests: UnExpr width regression, bounded digest logs,
and the codegen engine's copy elision for non-mutating programs."""

import pytest

from repro.net.packet import HeaderType, Packet, ip, make_udp
from repro.p4 import ENGINES, ir
from repro.p4.bmv2 import BoundedLog, Bmv2Switch
from repro.p4.programs import l2_port_forwarding

H = HeaderType("h", [("a", 32), ("b", 16)])


def _program(ingress):
    program = ir.P4Program(
        name="unexpr",
        parser=ir.ParserSpec(states=[
            ir.ParserState("start", extracts=[ir.Extract("h", H)],
                           transitions=[ir.Transition(ir.ACCEPT)]),
        ]),
        metadata=[("out", 32)],
        emit_order=["h"],
    )
    program.ingress = ingress
    return program


def _egress_for(expr):
    """Run ``egress_spec = expr`` on both engines; assert they agree and
    return the value."""
    results = []
    for engine in ENGINES:
        program = _program([
            ir.AssignStmt("standard_metadata.egress_spec", expr),
        ])
        sw = Bmv2Switch(program, engine=engine)
        out = sw.process(Packet(headers=[H(a=1, b=2)], payload_len=4), 1)
        results.append(out[0][0])
    assert results[0] == results[1]
    return results[0]


class TestUnExprWidth:
    """Regression: '~' and '-' must mask to the declared width, not a
    hard-coded 32 bits (found via a 16-bit ``~`` comparing > 65535)."""

    def test_not_uses_explicit_width(self):
        assert _egress_for(ir.UnExpr("~", ir.Const(5, 16), 16)) == 0xFFFA

    def test_not_derives_width_from_const_operand(self):
        assert _egress_for(ir.UnExpr("~", ir.Const(5, 8))) == 0xFA

    def test_not_derives_width_from_binexpr_operand(self):
        expr = ir.UnExpr("~", ir.BinExpr("+", ir.Const(1, 16),
                                         ir.Const(2, 16), width=16))
        assert _egress_for(expr) == 0xFFFC

    def test_neg_masks_to_operand_width(self):
        assert _egress_for(ir.UnExpr("-", ir.Const(1, 8))) == 0xFF

    def test_field_ref_operand_defaults_to_32_bits(self):
        expr = ir.UnExpr("~", ir.FieldRef("hdr.h.a"))
        assert _egress_for(expr) == (~1) & 0xFFFFFFFF

    def test_logical_not_is_boolean(self):
        assert _egress_for(ir.UnExpr("!", ir.Const(0, 16))) == 1
        assert _egress_for(ir.UnExpr("!", ir.Const(7, 16))) == 0

    def test_unexpr_width_helper(self):
        assert ir.unexpr_width(ir.UnExpr("~", ir.Const(0, 12), 9)) == 9
        assert ir.unexpr_width(ir.UnExpr("~", ir.Const(0, 12))) == 12
        assert ir.unexpr_width(
            ir.UnExpr("-", ir.UnExpr("!", ir.Const(0, 12)))) == 1
        assert ir.unexpr_width(ir.UnExpr("~", ir.FieldRef("meta.x"))) == 32


class TestBoundedLog:
    def test_ring_semantics(self):
        log = BoundedLog(capacity=3)
        assert not log and len(log) == 0 and log.dropped == 0
        for i in range(5):
            log.append(i)
        assert log.total == 5
        assert len(log) == 3
        assert log.dropped == 2
        assert list(log) == [2, 3, 4]
        assert log[0] == 2 and log[-1] == 4
        assert log[1:] == [3, 4]
        assert log == [2, 3, 4]
        log.clear()
        assert log.total == 0 and len(log) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BoundedLog(capacity=0)

    def test_switch_digests_are_bounded(self):
        program = _program([
            ir.Digest("beacon", [ir.FieldRef("hdr.h.b")]),
        ])
        for engine in ENGINES:
            sw = Bmv2Switch(program, engine=engine, digest_capacity=4)
            for i in range(10):
                sw.process(Packet(headers=[H(a=0, b=i)], payload_len=0), 1)
            assert sw.digests.total == 10
            assert len(sw.digests) == 4
            assert sw.digests.dropped == 6
            assert [m.values[0] for m in sw.digests] == [6, 7, 8, 9]


class TestCopyElision:
    def test_non_mutating_program_shares_headers(self):
        """The codegen engine copies a header on first write only; the
        reference engine always copies (``test_bmv2.py``)."""
        sw = Bmv2Switch(l2_port_forwarding(), engine="codegen")
        sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 10, 20)
        (_, out), = sw.process(packet, 1)
        assert out is not packet  # the shell is fresh
        for original, emitted in zip(packet.headers, out.headers):
            assert emitted is original  # headers are shared

    def test_mutating_program_copies_headers(self):
        program = _program([
            ir.AssignStmt("hdr.h.a", ir.Const(9, 32)),
        ])
        for engine in ENGINES:
            sw = Bmv2Switch(program, engine=engine)
            packet = Packet(headers=[H(a=1, b=2)], payload_len=0)
            (_, out), = sw.process(packet, 1)
            assert out.headers[0] is not packet.headers[0]
            assert packet.headers[0].values["a"] == 1  # original untouched
            assert out.headers[0].values["a"] == 9


def test_unknown_engine_rejected():
    for engine in ("turbo", "fast"):
        with pytest.raises(ValueError) as excinfo:
            Bmv2Switch(l2_port_forwarding(), engine=engine)
        for valid in ENGINES:
            assert valid in str(excinfo.value)
