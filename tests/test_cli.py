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


def test_metrics_command_json(capsys):
    import json

    code, out, _ = run_cli(capsys, "metrics", "3", "--json")
    assert code == 0
    dump = json.loads(out)
    assert dump["switch_packets_total"]["kind"] == "counter"
    assert sum(s["value"] for s in
               dump["table_lookups_total"]["series"]) > 0


def test_trace_command_jsonl_stdout(capsys):
    import json

    code, out, _ = run_cli(capsys, "trace", "3")
    assert code == 0
    events = [json.loads(line) for line in out.splitlines()]
    assert events
    kinds = {e["kind"] for e in events}
    assert "parse" in kinds and "enqueue" in kinds


def test_trace_command_follow_and_export(tmp_path, capsys):
    import json

    out_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(capsys, "trace", "3", "--follow",
                             "-o", str(out_path))
    assert code == 0
    assert "packet" in out and "parse" in out
    assert f"to {out_path}" in err
    lines = out_path.read_text().splitlines()
    assert lines and all(json.loads(line) for line in lines)


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
    assert out.startswith("packet ") and "parse" in out


@pytest.mark.parametrize("verb", ["bench", "aether"])
def test_retired_benchmark_verbs_are_rejected(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
