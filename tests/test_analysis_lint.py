"""The lint rules over compiled checker IR.

Covers every rule category with a crafted fixture (asserting the rule
fires *and* points at the right source line), the structured-diagnostic
plumbing (ordering, JSON, severity thresholds), the ``repro.api.lint``
facade, the CLI, and the lint-visible difftest mutations
(``kill_register_write`` / ``orphan_table``): the linter must flag what
the mutations break.
"""

import json
import random

import pytest

from repro import api
from repro.analysis import (REGISTRY, Diagnostic, Severity, lint_compiled,
                            max_severity, render_json, sort_diagnostics)
from repro.cli import main
from repro.difftest import inject_mutation, kill_register_write, orphan_table
from repro.p4 import ir
from repro.properties import PROPERTIES


def rules(diags):
    return {d.rule for d in diags}


def by_rule(diags, rule):
    return [d for d in diags if d.rule == rule]


# ---------------------------------------------------------------------------
# Rule fixtures: each crafted program triggers exactly the rule under test
# (other fragments stay clean) and the span points at the offending line.
# ---------------------------------------------------------------------------

def test_ih001_read_of_never_parsed_header():
    diags = api.lint("""
tele bit<12> entry = 0;
header bit<12> vlan_id;
{ entry = vlan_id; }
{ }
{ }
""", name="f_ih001")
    found = by_rule(diags, "IH001")
    assert found, diags
    assert found[0].severity is Severity.WARNING
    assert found[0].path == "hdr.vlan.vid"
    assert found[0].span.line == 4
    assert "never parsed" in found[0].message
    assert found[0].hint


def test_ih002_register_written_never_read():
    diags = api.lint("""
sensor bit<32> cnt = 0;
tele bool seen = false;
{ }
{ cnt = packet_length; seen = true; }
{ if (seen) { report; } }
""", name="f_ih002_wnr")
    found = by_rule(diags, "IH002")
    assert len(found) == 1
    assert found[0].path == "ih_reg_cnt"
    assert found[0].span.line == 5
    assert "never read" in found[0].message


def test_ih002_register_read_never_written():
    diags = api.lint("""
control thresh;
sensor bit<32> cnt = 0;
tele bool big = false;
{ }
{ if (cnt > thresh) { big = true; } }
{ if (big) { reject; } }
""", name="f_ih002_rnw")
    found = by_rule(diags, "IH002")
    assert len(found) == 1
    assert found[0].path == "ih_reg_cnt"
    assert found[0].span.line == 6
    assert "never written" in found[0].message


def test_ih002_register_never_referenced():
    diags = api.lint("""
sensor bit<32> unused = 0;
tele bool seen = false;
{ }
{ seen = true; }
{ if (seen) { report; } }
""", name="f_ih002_dead")
    found = by_rule(diags, "IH002")
    assert len(found) == 1
    assert found[0].path == "ih_reg_unused"
    assert "never read or written" in found[0].message


def test_ih003_statements_after_mark_to_drop():
    compiled = api.compile_indus("loops")
    assert not by_rule(lint_compiled(compiled), "IH003")
    compiled.check_stmts.append(ir.MarkToDrop())
    compiled.check_stmts.append(
        ir.AssignStmt("meta.ih_looped", ir.Const(1, 1)))
    found = by_rule(lint_compiled(compiled), "IH003")
    assert len(found) == 1
    assert found[0].block == "checker"
    assert found[0].severity is Severity.WARNING


def test_ih004_register_written_in_two_fragments():
    diags = api.lint("""
sensor bit<32> cnt = 0;
control thresh;
tele bool big = false;
{ }
{ cnt += packet_length; if (cnt > thresh) { big = true; } }
{ cnt += 1; if (big) { reject; } }
""", name="f_ih004")
    found = by_rule(diags, "IH004")
    assert len(found) == 1
    assert found[0].path == "ih_reg_cnt"
    assert found[0].span.line == 7
    assert "telemetry" in found[0].message and "checker" in found[0].message


def test_ih005_table_key_on_possibly_invalid_header():
    compiled = api.compile_indus("loops")
    assert not by_rule(lint_compiled(compiled), "IH005")
    compiled.tables["ih_bad_tbl"] = ir.Table(
        name="ih_bad_tbl", keys=[ir.TableKey("hdr.tcp.src_port")],
        actions=[compiled.mark_first_action])
    compiled.tele_stmts.append(ir.ApplyTable("ih_bad_tbl"))
    found = by_rule(lint_compiled(compiled), "IH005")
    assert found
    assert found[0].path == "hdr.tcp.src_port"
    assert "tcp" in found[0].hint


def test_ih005_validity_guard_suppresses_the_finding():
    compiled = api.compile_indus("loops")
    compiled.tables["ih_bad_tbl"] = ir.Table(
        name="ih_bad_tbl", keys=[ir.TableKey("hdr.tcp.src_port")],
        actions=[compiled.mark_first_action])
    compiled.tele_stmts.append(ir.IfStmt(
        cond=ir.ValidRef("tcp"),
        then_body=[ir.ApplyTable("ih_bad_tbl")]))
    assert not by_rule(lint_compiled(compiled), "IH005")


def test_ih006_width_truncation_on_scratch_copy():
    # The 9-bit standard_metadata.egress_port lands in an 8-bit dict-key
    # scratch field: a real (and intentional) compiler narrowing that
    # the linter must surface.
    diags = api.lint("""
control dict<bit<8>, bool> is_uplink;
header bit<8> eg_port;
tele bool up = false;
{ }
{ if (is_uplink[eg_port]) { up = true; } }
{ if (up) { report; } }
""", name="f_ih006")
    found = by_rule(diags, "IH006")
    assert found
    assert found[0].span.line == 6
    assert "9" in found[0].message and "8" in found[0].message


def test_ih007_dead_table():
    compiled = api.compile_indus("loops")
    assert not by_rule(lint_compiled(compiled), "IH007")
    compiled.tables["ih_orphan_tbl"] = ir.Table(
        name="ih_orphan_tbl", keys=[ir.TableKey("meta.ih_x")],
        actions=[compiled.mark_first_action])
    found = by_rule(lint_compiled(compiled), "IH007")
    assert len(found) == 1
    assert found[0].path == "ih_orphan_tbl"


# ---------------------------------------------------------------------------
# Diagnostic plumbing
# ---------------------------------------------------------------------------

def test_diagnostics_order_and_severity_helpers():
    a = Diagnostic(rule="IH009", severity=Severity.WARNING, message="w")
    b = Diagnostic(rule="IH001", severity=Severity.ERROR, message="e")
    c = Diagnostic(rule="IH004", severity=Severity.INFO, message="i")
    ordered = sort_diagnostics([a, b, c])
    assert [d.rule for d in ordered] == ["IH001", "IH009", "IH004"]
    assert max_severity([a, c]) is Severity.WARNING
    assert max_severity([]) is None
    assert Severity.parse("warn") is Severity.WARNING
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_render_json_is_valid_and_complete():
    diags = api.lint("vlan_isolation")
    blob = json.loads(render_json(diags, name="vlan_isolation"))
    assert blob["program"] == "vlan_isolation"
    assert len(blob["diagnostics"]) == len(diags)
    for entry in blob["diagnostics"]:
        assert entry["rule"].startswith("IH")
        assert entry["severity"] in ("info", "warning", "error")


def test_lint_is_deterministic():
    for name in ("vlan_isolation", "load_balance", "stateful_firewall"):
        first = [d.format(name=name) for d in api.lint(name)]
        second = [d.format(name=name) for d in api.lint(name)]
        assert first == second


def test_only_filter_restricts_rules():
    compiled = api.compile_indus("loops")
    compiled.check_stmts.append(ir.MarkToDrop())
    compiled.check_stmts.append(
        ir.AssignStmt("meta.ih_looped", ir.Const(1, 1)))
    diags = lint_compiled(compiled, only=["IH003"])
    assert diags and rules(diags) == {"IH003"}
    assert list(REGISTRY) == sorted(REGISTRY)
    with pytest.raises(ValueError, match="IH001, IH002"):
        lint_compiled(compiled, only=["IH999"])


def test_bundled_properties_have_no_errors():
    # The CI lint gate: warnings are allowed (documented narrowings,
    # standalone-context header binds), errors are not.
    for name in sorted(PROPERTIES):
        worst = max_severity(api.lint(name))
        assert worst is None or worst < Severity.ERROR, name


# ---------------------------------------------------------------------------
# API facade + CLI
# ---------------------------------------------------------------------------

def test_api_lint_accepts_compiled_checker():
    compiled = api.compile_indus("vlan_isolation")
    assert ([d.rule for d in api.lint(compiled)]
            == [d.rule for d in api.lint("vlan_isolation")])


def test_cli_lint_text_json_and_threshold(capsys):
    assert main(["lint", "loops"]) == 0
    out = capsys.readouterr().out
    assert "loops: clean" in out

    assert main(["lint", "vlan_isolation", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["program"] == "vlan_isolation"
    assert any(d["rule"] == "IH001" for d in blob["diagnostics"])

    # The same warning trips the gate at --fail-on warn.
    assert main(["lint", "vlan_isolation", "--fail-on", "warn"]) == 1


def test_cli_lint_all_and_seed_targets(capsys):
    assert main(["lint", "--all"]) == 0
    out = capsys.readouterr().out
    for name in PROPERTIES:
        assert f"{name}:" in out

    assert main(["lint", "7"]) == 0
    assert "dt7:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Lint-visible difftest mutations: the linter flags what they break
# ---------------------------------------------------------------------------

def test_kill_register_write_is_flagged_by_ih002():
    compiled = api.compile_indus("load_balance")
    assert not by_rule(lint_compiled(compiled), "IH002")
    note = kill_register_write(compiled)
    assert "killed write" in note
    found = by_rule(lint_compiled(compiled), "IH002")
    assert any(d.path in note for d in found), (note, found)


def test_orphan_table_is_flagged_by_ih007():
    compiled = api.compile_indus("stateful_firewall")
    assert not by_rule(lint_compiled(compiled), "IH007")
    note = orphan_table(compiled)
    assert "orphaned table" in note
    found = by_rule(lint_compiled(compiled), "IH007")
    assert any(d.path in note for d in found), (note, found)


def test_inject_mutation_lint_visible_kinds():
    rng = random.Random(0)
    compiled = api.compile_indus("load_balance")
    note = inject_mutation(compiled, rng, kinds=("kill_write",))
    assert note is not None
    assert by_rule(lint_compiled(compiled), "IH002")

    compiled = api.compile_indus("stateful_firewall")
    note = inject_mutation(compiled, rng, kinds=("orphan",))
    assert note is not None
    assert by_rule(lint_compiled(compiled), "IH007")
