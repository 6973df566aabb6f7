"""Trace-driven property checking tests (the `repro run` debugger)."""

import json

import pytest

from repro.cli import main
from repro.properties import load_checked
from repro.runtime.tracecheck import (TraceFormatError, run_trace,
                                      run_trace_file)


def test_valley_free_trace_verdicts():
    checked = load_checked("valley_free")
    spine = {"controls": {"is_spine_switch": True}}
    leaf = {"controls": {"is_spine_switch": False}}
    good = run_trace(checked, {"hops": [dict(leaf), dict(spine),
                                        dict(leaf)]})
    assert good.accepted
    bad = run_trace(checked, {"hops": [dict(leaf), dict(spine), dict(leaf),
                                       dict(spine), dict(leaf)]})
    assert not bad.accepted
    assert bad.tele_values()["to_reject"] is True


def test_global_dict_controls():
    checked = load_checked("multi_tenancy")
    trace = {
        "controls": {"tenants": {"dict": [[1, 10], [2, 20]]}},
        "hops": [
            {"headers": {"in_port": 1, "eg_port": 0}},
            {"headers": {"in_port": 0, "eg_port": 2}},
        ],
    }
    result = run_trace(checked, trace)
    assert not result.accepted  # tenants 10 vs 20


def test_set_controls_and_reports():
    checked = load_checked("egress_port_validity")
    trace = {
        "controls": {"allowed_ports": {"set": [1, 2]}},
        "hops": [{"headers": {"eg_port": 9}}],
    }
    result = run_trace(checked, trace)
    assert not result.accepted
    assert result.reports


def test_hop_defaults_and_overrides():
    checked = load_checked("loops")
    # Default switch_id is the hop index + 1 -> no loop.
    assert run_trace(checked, {"hops": [{}, {}, {}]}).accepted
    # Explicit ids form a loop.
    trace = {"hops": [{"switch_id": 7}, {"switch_id": 8},
                      {"switch_id": 7}]}
    assert not run_trace(checked, trace).accepted


def test_sensor_state_spans_hops():
    checked = load_checked("load_balance")
    trace = {
        "controls": {"left_port": 1, "right_port": 2, "thresh": 100,
                     "is_uplink": {"dict": [[1, True], [2, True]]}},
        "hops": [{"headers": {"eg_port": 1}, "packet_length": 500}],
    }
    result = run_trace(checked, trace)
    assert result.reports  # |500 - 0| > 100


@pytest.mark.parametrize("document, fragment", [
    ({}, "hops"),
    ({"hops": []}, "non-empty"),
    ({"hops": [3]}, "object"),
    ({"controls": {"x": {"weird": 1}},
      "hops": [{}]}, "aggregate"),
])
def test_malformed_traces_rejected(document, fragment):
    checked = load_checked("loops")
    if "controls" in document:
        # Need a program with a control named x for this case.
        from repro.indus import check, parse

        checked = check(parse("control bit<8> x;\n{ } { } { }"))
    with pytest.raises(TraceFormatError) as excinfo:
        run_trace(checked, document)
    assert fragment in str(excinfo.value)


def test_cli_run_exit_codes(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "hops": [{"switch_id": 1}, {"switch_id": 1}],
    }))
    code = main(["run", "loops", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 2
    assert "REJECTED" in out
    trace.write_text(json.dumps({"hops": [{"switch_id": 1}]}))
    assert main(["run", "loops", "--trace", str(trace)]) == 0


def test_cli_run_bad_trace(tmp_path, capsys):
    trace = tmp_path / "bad.json"
    trace.write_text("{nope")
    code = main(["run", "loops", "--trace", str(trace)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_trace_file(tmp_path):
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps({"hops": [{}]}))
    result = run_trace_file(load_checked("waypointing"), str(trace))
    # No waypoint on the path -> rejected.
    assert not result.accepted


def test_run_trace_file_invalid_json(tmp_path):
    trace = tmp_path / "broken.json"
    trace.write_text('{"hops": [')
    with pytest.raises(TraceFormatError) as excinfo:
        run_trace_file(load_checked("loops"), str(trace))
    assert "invalid JSON" in str(excinfo.value)
    assert "broken.json" in str(excinfo.value)


def test_trace_must_be_an_object():
    with pytest.raises(TraceFormatError, match="hops"):
        run_trace(load_checked("loops"), ["not", "a", "dict"])


def test_hops_must_be_a_list():
    with pytest.raises(TraceFormatError, match="non-empty"):
        run_trace(load_checked("loops"), {"hops": {"0": {}}})


def test_non_dict_hop_reports_its_index():
    with pytest.raises(TraceFormatError, match="hop 1"):
        run_trace(load_checked("loops"), {"hops": [{}, "oops"]})


def test_malformed_per_hop_controls_rejected():
    from repro.indus import check, parse

    checked = check(parse("control bit<8> x;\n{ } { } { }"))
    trace = {"hops": [{"controls": {"x": {"neither": []}}}]}
    with pytest.raises(TraceFormatError, match="aggregate"):
        run_trace(checked, trace)


def test_the_result_carries_each_hops_telemetry():
    """A plain-data snapshot per hop, arrays as the list of their valid
    slots, booleans as ints."""
    from repro.indus import check, parse

    checked = check(parse(
        "tele bit<16> n = 0;\ntele bool seen = false;\n"
        "tele bit<16>[4] path;\n"
        "{ } { n = n + 1; seen = true; path.push(n); } { }"))
    result = run_trace(checked, {"hops": [{}, {}, {}]})
    assert result.hop_tele == [
        {"n": 1, "seen": 1, "path": [1]},
        {"n": 2, "seen": 1, "path": [1, 2]},
        {"n": 3, "seen": 1, "path": [1, 2, 3]}]
    assert result.hop_tele[-1]["path"] == result.tele_values()["path"]
