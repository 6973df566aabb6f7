"""Reference interpreter tests: expression semantics, statement
execution, verdict accumulation, and state separation."""

import pytest

from repro.indus import (EvalError, HopContext, Monitor, check, parse)


def run_once(source, headers=None, controls=None, sensors=None,
             packet_length=0, hop_count=0, switch_id=0):
    """Run one single-hop packet through a program."""
    monitor = Monitor.from_source(source)
    ctrl = monitor.new_controls()
    for name, value in (controls or {}).items():
        if isinstance(value, dict):
            for k, v in value.items():
                ctrl.dict_put(name, k, v)
        else:
            ctrl.set_value(name, value)
    ctx = HopContext(headers=headers or {}, controls=ctrl,
                     sensors=sensors or monitor.new_sensors(),
                     first_hop=True, last_hop=True,
                     packet_length=packet_length, hop_count=hop_count,
                     switch_id=switch_id)
    state = monitor.run_path([ctx])
    return state


def final_tele(source, var, **kwargs):
    return run_once(source, **kwargs).tele[var]


# ---------------------------------------------------------------------------
# Expression semantics
# ---------------------------------------------------------------------------

def test_arithmetic_wraps_at_declared_width():
    src = "tele bit<8> x = 250;\n{ x = x + 10; } { } { }"
    assert final_tele(src, "x") == (250 + 10) % 256


def test_subtraction_wraps():
    src = "tele bit<8> x = 3;\n{ x = x - 5; } { } { }"
    assert final_tele(src, "x") == (3 - 5) % 256


def test_division_by_zero_is_zero():
    src = "tele bit<8> x = 10;\ntele bit<8> z = 0;\n{ x = x / z; } { } { }"
    assert final_tele(src, "x") == 0


def test_modulo_by_zero_is_zero():
    src = "tele bit<8> x = 10;\ntele bit<8> z = 0;\n{ x = x % z; } { } { }"
    assert final_tele(src, "x") == 0


def test_bitwise_operations():
    src = ("tele bit<8> x = 0;\n"
           "{ x = (12 & 10) | (1 << 6) ^ 3; } { } { }")
    assert final_tele(src, "x") == (12 & 10) | (1 << 6) ^ 3


def test_abs_is_absolute_difference():
    src = ("tele bit<32> x = 0;\ntele bit<32> a = 3;\ntele bit<32> b = 10;\n"
           "{ x = abs(a - b); } { } { }")
    assert final_tele(src, "x") == 7


def test_abs_symmetric():
    src = ("tele bit<32> x = 0;\ntele bit<32> a = 10;\ntele bit<32> b = 3;\n"
           "{ x = abs(a - b); } { } { }")
    assert final_tele(src, "x") == 7


def test_min_max():
    src = ("tele bit<8> lo = 0;\ntele bit<8> hi = 0;\n"
           "{ lo = min(3, 9); hi = max(3, 9); } { } { }")
    state = run_once(src)
    assert state.tele["lo"] == 3 and state.tele["hi"] == 9


def test_comparisons():
    src = ("tele bool r = false;\ntele bit<8> a = 5;\n"
           "{ r = a > 4 && a >= 5 && a < 6 && a <= 5 && a == 5 && a != 4; }"
           " { } { }")
    assert final_tele(src, "r") is True


def test_logical_short_circuit_and_dict_default():
    # The right side of || is a dict miss that would be false anyway,
    # but short-circuit means it is never consulted.
    src = ("control dict<bit<8>,bool> d;\ntele bool r = false;\n"
           "{ r = true || d[9]; } { } { }")
    assert final_tele(src, "r") is True


def test_bool_and_bit_equality_normalizes():
    src = ("tele bool b = true;\ntele bool r = false;\n"
           "control dict<bit<8>,bool> d;\n"
           "{ r = d[1] == false; } { } { }")
    assert final_tele(src, "r") is True


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def test_if_elsif_else_choose_first_match():
    src = ("tele bit<8> x = 2;\ntele bit<8> r = 0;\n"
           "{ if (x == 1) { r = 10; } elsif (x == 2) { r = 20; }"
           " else { r = 30; } } { } { }")
    assert final_tele(src, "r") == 20


def test_else_branch():
    src = ("tele bit<8> x = 9;\ntele bit<8> r = 0;\n"
           "{ if (x == 1) { r = 10; } else { r = 30; } } { } { }")
    assert final_tele(src, "r") == 30


def test_push_and_for_iteration():
    src = ("tele bit<8>[4] xs;\ntele bit<8> total = 0;\n"
           "{ xs.push(1); xs.push(2); xs.push(3); }\n"
           "{ }\n"
           "{ for (v in xs) { total = total + v; } }")
    assert final_tele(src, "total") == 6


def test_for_over_empty_array_does_nothing():
    src = ("tele bit<8>[4] xs;\ntele bit<8> total = 0;\n"
           "{ } { } { for (v in xs) { total = total + 1; } }")
    assert final_tele(src, "total") == 0


def test_multi_variable_for_zips():
    src = ("tele bit<8>[4] a;\ntele bit<8>[4] b;\ntele bit<8> dot = 0;\n"
           "{ a.push(1); a.push(2); b.push(10); b.push(20); }\n"
           "{ } { for (u, v in a, b) { dot = dot + u * v; } }")
    assert final_tele(src, "dot") == 1 * 10 + 2 * 20


def test_indexed_assignment():
    src = ("tele bit<8>[4] xs;\ntele bit<8> r = 0;\n"
           "{ xs[2] = 9; } { } { r = xs[2]; }")
    assert final_tele(src, "r") == 9


def test_in_operator_over_array():
    src = ("tele bit<8>[4] xs;\ntele bool hit = false;\n"
           "{ xs.push(7); } { } { if (7 in xs) { hit = true; } }")
    assert final_tele(src, "hit") is True


def test_augmented_assignment_with_packet_length():
    src = ("sensor bit<32> load = 0;\ntele bit<32> seen = 0;\n"
           "{ } { load += packet_length; seen = load; } { }")
    assert final_tele(src, "seen", packet_length=123) == 123


def test_a_builtin_reads_masked_to_its_declared_width():
    # bit<64> targets, so only the builtin's own width can mask.
    src = ("tele bit<64> hops = 0;\ntele bit<64> sw = 0;\n"
           "tele bit<64> size = 0;\n"
           "{ } { hops = hop_count; sw = switch_id; size = packet_length; }"
           " { }")
    tele = run_once(src, hop_count=300, switch_id=2**32 + 5,
                    packet_length=2**32 + 1).tele
    assert (tele["hops"], tele["sw"], tele["size"]) == (44, 5, 1)


# ---------------------------------------------------------------------------
# Verdicts: reject / report accumulate (Figure 9 runs both)
# ---------------------------------------------------------------------------

def test_reject_then_report_both_take_effect():
    src = ("{ } { } { reject; report(1); }")
    state = run_once(src)
    assert state.rejected
    assert len(state.reports) == 1


def test_report_payload_tuple():
    src = ("header bit<8> a;\nheader bit<8> b;\n"
           "{ } { } { report((b, a)); }")
    state = run_once(src, headers={"a": 1, "b": 2})
    assert state.reports[0].payload == (2, 1)


def test_report_records_block_and_switch():
    src = "{ report; } { } { }"
    state = run_once(src, switch_id=42)
    assert state.reports[0].block == "init"
    assert state.reports[0].switch_id == 42


def test_execution_continues_after_reject():
    src = ("tele bit<8> x = 0;\n{ } { } { reject; x = 5; }")
    state = run_once(src)
    assert state.rejected and state.tele["x"] == 5


# ---------------------------------------------------------------------------
# State separation
# ---------------------------------------------------------------------------

def test_sensors_persist_across_packets():
    src = "sensor bit<32> count = 0;\n{ } { count += 1; } { }"
    monitor = Monitor.from_source(src)
    sensors = monitor.new_sensors()
    for _ in range(3):
        ctx = HopContext(sensors=sensors, first_hop=True, last_hop=True)
        monitor.run_path([ctx])
    assert sensors.get("count") == 3


def test_tele_state_is_per_packet():
    src = "tele bit<8> x = 0;\n{ x = x + 1; } { } { }"
    monitor = Monitor.from_source(src)
    for _ in range(3):
        ctx = HopContext(first_hop=True, last_hop=True)
        state = monitor.run_path([ctx])
        assert state.tele["x"] == 1  # never accumulates across packets


def test_sensor_initializer_applied_once():
    src = "sensor bit<8> s = 7;\ntele bit<8> r = 0;\n{ } { r = s; } { }"
    monitor = Monitor.from_source(src)
    sensors = monitor.new_sensors()
    ctx = HopContext(sensors=sensors, first_hop=True, last_hop=True)
    assert monitor.run_path([ctx]).tele["r"] == 7


def test_missing_header_raises():
    src = "header bit<8> p;\ntele bit<8> r = 0;\n{ r = p; } { } { }"
    monitor = Monitor.from_source(src)
    ctx = HopContext(first_hop=True, last_hop=True)  # no headers provided
    with pytest.raises(EvalError):
        monitor.run_path([ctx])


def test_control_scalar_update_between_packets():
    src = ("control bit<8> limit;\ntele bool over = false;\n"
           "{ if (packet_length > limit) { over = true; } } { } { }")
    monitor = Monitor.from_source(src)
    controls = monitor.new_controls()
    controls.set_value("limit", 100)
    ctx = HopContext(controls=controls, first_hop=True, last_hop=True,
                     packet_length=150)
    assert monitor.run_path([ctx]).tele["over"] is True
    controls.set_value("limit", 200)
    ctx = HopContext(controls=controls, first_hop=True, last_hop=True,
                     packet_length=150)
    assert monitor.run_path([ctx]).tele["over"] is False


def test_control_set_membership():
    src = ("control set<bit<8>> allowed;\ntele bool ok = false;\n"
           "header bit<8> p;\n{ if (p in allowed) { ok = true; } } { } { }")
    monitor = Monitor.from_source(src)
    controls = monitor.new_controls()
    controls.set_add("allowed", 5)
    ctx = HopContext(headers={"p": 5}, controls=controls,
                     first_hop=True, last_hop=True)
    assert monitor.run_path([ctx]).tele["ok"] is True


# ---------------------------------------------------------------------------
# Multi-hop behaviour
# ---------------------------------------------------------------------------

def test_blocks_run_at_correct_hops():
    src = ("tele bit<8> inits = 0;\ntele bit<8> teles = 0;\n"
           "tele bit<8> checks = 0;\n"
           "{ inits = inits + 1; }\n"
           "{ teles = teles + 1; }\n"
           "{ checks = checks + 1; }")
    monitor = Monitor.from_source(src)
    contexts = [
        HopContext(first_hop=True),
        HopContext(),
        HopContext(last_hop=True),
    ]
    state = monitor.run_path(contexts)
    assert state.tele["inits"] == 1
    assert state.tele["teles"] == 3
    assert state.tele["checks"] == 1


def test_single_hop_runs_all_blocks():
    src = ("tele bit<8> n = 0;\n{ n = n + 1; } { n = n + 1; }"
           " { n = n + 1; }")
    monitor = Monitor.from_source(src)
    state = monitor.run_path([HopContext(first_hop=True, last_hop=True)])
    assert state.tele["n"] == 3
