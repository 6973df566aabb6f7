"""Compiler tests: layout, per-construct code generation, and behaviour
of compiled checkers executed on the behavioral model.

The helper :func:`deploy_standalone` builds a single edge switch running
a compiled checker linked with L2 port forwarding (ports 1 and 2 are the
edge ports), so checker semantics can be observed packet by packet.
"""

import pytest

from repro.compiler import build_layout, compile_program, standalone_program
from repro.compiler.lower import CompiledChecker
from repro.indus import check, parse
from repro.indus.errors import CompileError
from repro.net.packet import ETH_TYPE_IPV4, ip, make_udp
from repro.p4.bmv2 import Bmv2Switch


def deploy_standalone(source_or_compiled, controls=None):
    if isinstance(source_or_compiled, CompiledChecker):
        compiled = source_or_compiled
    else:
        compiled = compile_program(source_or_compiled, name="t")
    program = standalone_program(compiled)
    sw = Bmv2Switch(program, name="s1")
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry("fwd_table", [2], "fwd_set_egress", [1])
    for port in (1, 2):
        sw.insert_entry(compiled.inject_table, [port],
                        compiled.mark_first_action)
        sw.insert_entry(compiled.strip_table, [port],
                        compiled.mark_last_action)
    for name, value in (controls or {}).items():
        for table in compiled.control_tables[name]:
            if isinstance(value, dict):
                for key, entry_value in value.items():
                    match = [(k, k) for k in
                             (key if isinstance(key, tuple) else (key,))]
                    sw.insert_entry(
                        table, match,
                        compiled.dict_hit_action(name, table),
                        [int(entry_value)], priority=1000)
            else:
                sw.set_default_action(
                    table, compiled.scalar_load_action(name, table),
                    [int(value)])
    return compiled, sw


def send(sw, sport=1000, dport=2000, in_port=1, payload=64):
    packet = make_udp(ip(10, 0, 0, 1), ip(10, 0, 0, 2), sport, dport,
                      payload_len=payload)
    return sw.process(packet, in_port)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------

def test_layout_scalar_fields():
    checked = check(parse("tele bit<8> a;\ntele bool b;\n{ } { } { }"))
    layout = build_layout(checked)
    assert layout.header.field("a").width == 8
    assert layout.header.field("b").width == 1
    assert layout.header.fields[0].name == "next_eth_type"


def test_layout_array_fields():
    checked = check(parse("tele bit<16>[3] xs;\n{ } { } { }"))
    layout = build_layout(checked)
    names = [f.name for f in layout.header.fields]
    assert "xs_count" in names
    for i in range(3):
        assert f"xs_{i}" in names and f"xs_{i}_valid" in names
    assert layout.array("xs").elem_width == 16


def test_layout_hop_count_only_when_used():
    without = build_layout(check(parse("{ } { } { }")))
    with_hc = build_layout(check(parse(
        "tele bit<8> h;\n{ } { h = hop_count; } { }")))
    names_without = [f.name for f in without.header.fields]
    names_with = [f.name for f in with_hc.header.fields]
    assert "hop_count" not in names_without
    assert "hop_count" in names_with


def test_namespaced_layout_header_name():
    checked = check(parse("{ } { } { }"))
    compiled = compile_program(checked, name="x", namespace="x")
    assert compiled.hydra_name == "hydra_x"
    assert compiled.meta_prefix == "ih_x_"


# ---------------------------------------------------------------------------
# End-to-end checker behaviour through the compiled pipeline
# ---------------------------------------------------------------------------

def test_telemetry_header_injected_and_stripped():
    src = "tele bit<8> x = 3;\n{ } { } { }"
    compiled, sw = deploy_standalone(src)
    out = send(sw)
    names = [h.name for h in out[0][1].headers]
    assert "hydra" not in names
    assert out[0][1].find("ethernet").get("eth_type") == ETH_TYPE_IPV4


def test_reject_drops_at_last_hop():
    src = "{ } { } { reject; }"
    compiled, sw = deploy_standalone(src)
    assert send(sw) == []


def test_reject_only_when_condition_holds():
    src = ("header bit<16> dport @ udp.dst_port;\n"
           "{ } { } { if (dport == 81) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert send(sw, dport=81) == []
    assert len(send(sw, dport=80)) == 1


def test_report_emits_digest_with_payload():
    src = ("header bit<16> dport @ udp.dst_port;\n"
           "{ } { } { report((dport, dport)); }")
    compiled, sw = deploy_standalone(src)
    send(sw, dport=77)
    assert len(sw.digests) == 1
    site_id, a, b = sw.digests[0].values
    assert (a, b) == (77, 77)
    assert compiled.report_sites[site_id].block == "checker"


def test_tele_scalar_initializer_applied_at_inject():
    src = ("tele bit<8> x = 9;\ntele bit<8> y = 0;\n"
           "{ y = x; } { } { if (y != 9) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_sensor_register_read_modify_write():
    src = ("sensor bit<32> count = 0;\n"
           "{ } { count += 1; } { if (count > 2) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1
    assert len(send(sw)) == 1
    assert send(sw) == []  # third packet: count becomes 3 -> reject
    reg = compiled.registers[0].name
    assert sw.register_read(reg, 0) == 3


def test_control_scalar_via_default_action():
    src = ("control bit<16> limit;\nheader bit<16> dport @ udp.dst_port;\n"
           "{ } { } { if (dport > limit) { reject; } }")
    compiled, sw = deploy_standalone(src, controls={"limit": 100})
    assert len(send(sw, dport=50)) == 1
    assert send(sw, dport=200) == []


def test_control_dict_lookup_and_miss_default():
    src = ("control dict<bit<16>,bool> blocked;\n"
           "header bit<16> dport @ udp.dst_port;\n"
           "{ } { } { if (blocked[dport]) { reject; } }")
    compiled, sw = deploy_standalone(src, controls={"blocked": {81: 1}})
    assert send(sw, dport=81) == []
    assert len(send(sw, dport=80)) == 1  # miss -> false


def test_dict_lookup_with_tuple_key():
    src = ("control dict<(bit<16>,bit<16>),bool> pairs;\n"
           "header bit<16> sport @ udp.src_port;\n"
           "header bit<16> dport @ udp.dst_port;\n"
           "{ } { } { if (pairs[(sport, dport)]) { reject; } }")
    compiled, sw = deploy_standalone(src, controls={"pairs": {(5, 6): 1}})
    assert send(sw, sport=5, dport=6) == []
    assert len(send(sw, sport=6, dport=5)) == 1


def test_push_and_in_over_array():
    src = ("tele bit<16>[4] seen;\nheader bit<16> dport @ udp.dst_port;\n"
           "{ } { seen.push(dport); } { if (81 in seen) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert send(sw, dport=81) == []
    assert len(send(sw, dport=80)) == 1


def test_push_saturates_at_capacity():
    src = ("tele bit<8>[2] xs;\ntele bit<32> n = 0;\n"
           "{ xs.push(1); xs.push(2); xs.push(3); n = length(xs); }"
           " { } { if (n != 2) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_for_loop_unrolled_sums():
    src = ("tele bit<8>[4] xs;\ntele bit<8> total = 0;\n"
           "{ xs.push(1); xs.push(2); }\n{ }\n"
           "{ for (v in xs) { total = total + v; }\n"
           "  if (total != 3) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_multi_array_for_loop():
    src = ("tele bit<8>[4] a;\ntele bit<8>[4] b;\ntele bit<8> dot = 0;\n"
           "{ a.push(2); a.push(3); b.push(10); b.push(100); }\n{ }\n"
           "{ for (u, v in a, b) { dot = dot + u * v; }\n"
           "  if (dot != 64) { reject; } }")
    # 2*10 + 3*100 = 320 & 0xFF = 64
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_dynamic_array_index_read():
    src = ("tele bit<8>[4] xs;\ntele bit<8> i = 1;\ntele bit<8> r = 0;\n"
           "{ xs.push(7); xs.push(9); r = xs[i]; }\n{ }\n"
           "{ if (r != 9) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_const_array_index_assignment():
    src = ("tele bit<8>[4] xs;\n"
           "{ xs[2] = 5; }\n{ }\n"
           "{ if (xs[2] != 5 || length(xs) != 3) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_absdiff_translation():
    src = ("tele bit<32> a = 3;\ntele bit<32> b = 10;\n"
           "{ } { } { if (abs(a - b) != 7) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1


def test_packet_length_builtin_reads_standard_metadata():
    src = ("tele bit<32> len = 0;\n"
           "{ len = packet_length; } { } "
           "{ if (len < 100) { reject; } }")
    compiled, sw = deploy_standalone(src)
    # 64B payload + 42B headers + telemetry: well over 100 once the
    # hydra header is counted, so the packet passes.
    assert len(send(sw, payload=100)) == 1
    assert send(sw, payload=0) == []


def test_hop_count_increments_per_hop():
    src = ("tele bit<8> h = 0;\n"
           "{ } { h = hop_count; } { if (h != 1) { reject; } }")
    compiled, sw = deploy_standalone(src)
    assert len(send(sw)) == 1  # single hop -> one telemetry execution


def test_report_in_init_block_marked():
    src = "{ report; } { } { }"
    compiled, sw = deploy_standalone(src)
    send(sw)
    site_id = sw.digests[0].values[0]
    assert compiled.report_sites[site_id].block == "init"


# ---------------------------------------------------------------------------
# Compiler restrictions
# ---------------------------------------------------------------------------

def test_sensor_array_maps_to_register_bank():
    source = "sensor bit<8>[4] s;\n{ } { s.push(1); } { }"
    compiled = compile_program(source)
    regs = {r.name: r for r in compiled.registers}
    bank = regs[f"{compiled.meta_prefix}reg_s"]
    cursor = regs[f"{compiled.meta_prefix}reg_s_cnt"]
    assert bank.size == 4 and bank.width == 8
    assert cursor.size == 1


def test_sensor_dict_unsupported_by_backend():
    source = "sensor set<bit<8>> s;\n{ } { } { }"
    with pytest.raises(Exception):
        compile_program(source)


def test_tele_set_unsupported_by_backend():
    source = "tele set<bit<8>> s;\n{ } { } { }"
    with pytest.raises(CompileError):
        compile_program(source)


def test_unbound_header_variable_is_an_error():
    source = "header bit<8> mystery_field;\n{ } { } { }"
    compiled = compile_program(source)  # declaration alone is fine
    source = ("header bit<8> mystery_field;\ntele bit<8> x;\n"
              "{ x = mystery_field; } { } { }")
    with pytest.raises(CompileError):
        compile_program(source)


def test_default_bindings_cover_paper_names():
    source = ("header bit<8> in_port;\nheader bit<8> eg_port;\n"
              "tele bit<8> a;\n{ a = in_port; } { a = eg_port; } { }")
    compile_program(source)  # must not raise


def test_metadata_list_reported():
    compiled = compile_program("tele bit<8> x;\n{ } { } { }")
    names = [n for n, _ in compiled.metadata]
    assert compiled.first_hop_meta in names
    assert compiled.reject_meta in names
