"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_properties_listing(capsys):
    code, out, _ = run_cli(capsys, "properties")
    assert code == 0
    assert "multi_tenancy" in out
    assert "Table 1" in out


def test_check_bundled_property(capsys):
    code, out, _ = run_cli(capsys, "check", "loops")
    assert code == 0
    assert "loops: OK" in out
    assert "tele" in out


def test_check_file(tmp_path, capsys):
    path = tmp_path / "prog.indus"
    path.write_text("tele bit<8> x;\n{ } { } { }")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "prog: OK" in out


def test_check_reports_type_errors(tmp_path, capsys):
    path = tmp_path / "bad.indus"
    path.write_text("header bit<8> h;\n{ h = 1; } { } { }")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "read-only" in err


def test_unknown_target_exits(capsys):
    with pytest.raises(SystemExit):
        main(["check", "no_such_property"])


def test_compile_prints_p4(capsys):
    code, out, _ = run_cli(capsys, "compile", "valley_free")
    assert code == 0
    assert "#include <v1model.p4>" in out
    assert "hydra_t" in out


def test_compile_summary(capsys):
    code, out, _ = run_cli(capsys, "compile", "multi_tenancy", "--summary")
    assert code == 0
    assert "telemetry header" in out
    assert "generated P4" in out


def test_ltl_generation(capsys):
    code, out, _ = run_cli(capsys, "ltl", "a U b", "--max-trace", "3")
    assert code == 0
    assert "T.push(length(T));" in out
    assert "A_a.push(atom_a);" in out


def test_ltl_parse_error(capsys):
    code, _, err = run_cli(capsys, "ltl", "a &&& b")
    assert code == 1
    assert "error" in err


def test_table1_runs(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "Baseline" in out
    assert "source_routing_validation" in out


def test_metrics_command_prometheus(capsys):
    code, out, _ = run_cli(capsys, "metrics", "3")
    assert code == 0
    assert "# TYPE switch_packets_total counter" in out
    assert 'switch_packets_total{switch="s1"' in out
    assert "# TYPE phase_seconds histogram" in out


def test_metrics_command_json(capsys, monkeypatch):
    import json

    from repro.net.simulator import Network

    clocks = []
    run = Network.run

    def run_and_read_the_clock(self, until=None):
        run(self, until)
        clocks.append(self.sim.now)

    monkeypatch.setattr(Network, "run", run_and_read_the_clock)
    code, out, _ = run_cli(capsys, "metrics", "3", "--json")
    assert code == 0
    dump = json.loads(out)
    assert dump["switch_packets_total"]["kind"] == "counter"
    assert sum(s["value"] for s in
               dump["table_lookups_total"]["series"]) > 0
    assert clocks[-1] > 0
    assert dump["sim_time_seconds"]["series"] == [
        {"labels": {}, "value": clocks[-1]}]


def test_trace_command_jsonl_stdout(capsys):
    import json

    code, out, _ = run_cli(capsys, "trace", "3")
    assert code == 0
    (hop,) = [json.loads(line) for line in out.splitlines()]
    del hop["packet_id"]
    assert hop == {"t": 1.5672e-06, "switch": "s1", "ingress_port": 1,
                   "length": 109, "egress_ports": [],
                   "drop_reason": "pipeline", "digests": 3}


def test_trace_command_follow_and_export(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(capsys, "trace", "3", "--follow",
                             "-o", str(out_path))
    assert code == 0
    assert out.startswith("packet ") and "(1 hops):" in out
    assert "s1" in out and "drop pipeline digests=3" in out
    assert f"wrote 1 hops (0 dropped by the ring) to {out_path}" in err
    (line,) = out_path.read_text().splitlines()
    assert json.loads(line)["switch"] == "s1"


def test_trace_command_rejects_bad_scenario(capsys):
    with pytest.raises(SystemExit, match="scenario must be"):
        main(["trace", "not-a-seed"])


def test_aether_scenario_reaches_switches_tables_and_tracer(capsys):
    import json

    code, out, _ = run_cli(capsys, "metrics", "aether", "--json")
    assert code == 0
    dump = json.loads(out)

    def total(metric, **labels):
        return sum(s["value"] for s in dump[metric]["series"]
                   if labels.items() <= s["labels"].items())

    # 100 sampled UEs send allowed uplink, every 4th gets downlink,
    # every 8th also sends traffic its slice denies: the UPF drops
    # those and the checker, live after attach + churn, agrees.
    assert total("packets_delivered_total", host="h2") == 100
    assert total("packets_delivered_total", host="h1") == 25
    assert total("switch_packets_dropped_total", reason="pipeline") == 13
    assert total("switch_packets_total") == 138
    assert total("table_lookups_total", result="hit") > 0
    assert total("checker_violations_total") == 0
    phases = {s["labels"]["phase"]: s["count"]
              for s in dump["phase_seconds"]["series"]}
    assert phases["attach"] == phases["churn"] == phases["replay"] == 1

    code, out, _ = run_cli(capsys, "trace", "aether", "--follow")
    assert code == 0
    assert out.startswith("packet ") and " hops):" in out


@pytest.mark.parametrize("verb", ["bench", "aether"])
def test_retired_benchmark_verbs_are_rejected(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fig12", "--load", "-5"],
    ["fig12", "--load", "0"],
    ["fig12", "--duration", "0"],
    ["fig12", "--duration", "-1"],
    ["metrics", "--duration", "0"],
    ["trace", "fig12", "--duration", "-1"],
], ids=" ".join)
def test_a_non_positive_duration_or_load_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be finite and > 0" in capsys.readouterr().err


def test_fig12_reports_an_unknown_checker(capsys):
    with pytest.raises(SystemExit,
                       match="^error: unknown checker 'nosuch'; valid: "):
        main(["fig12", "--checkers", "loops,nosuch"])
    assert capsys.readouterr().out == ""


def test_fig12_reads_a_trailing_comma_as_a_separator(capsys):
    code, out, _ = run_cli(capsys, "fig12", "--duration", "0.01",
                           "--checkers", "loops,")
    assert code == 0
    assert "checkers: loops;" in out and "n=   5" in out


def test_fig12_reports_an_arm_with_fewer_than_two_pings(capsys):
    code, _, err = run_cli(capsys, "fig12", "--duration", "0.002",
                           "--checkers", "loops")
    assert code == 1
    assert err.startswith("error: an arm measured fewer than two pings")
