"""Table 1 (Section 6.1): lines of code, pipeline stages and PHV for all
eleven properties, each checker linked at an edge of the Aether
fabric-upf baseline.  ``repro table1`` prints the same rows next to the
paper's numbers.

Stages come from the dependency-depth allocator and PHV from the
container-packing model, both anchored at the paper's measured baseline
(12 stages / 44.53%)."""

import pytest

from repro.aether.upf import upf_program
from repro.compiler import link
from repro.experiments import compute_table, format_table
from repro.properties import (BASELINE_PHV_PCT, BASELINE_STAGES,
                              TABLE1_ORDER, compile_property)
from repro.tofino import analyze_linked


@pytest.fixture(scope="module")
def rows():
    return compute_table(TABLE1_ORDER)


@pytest.fixture(scope="module")
def reports():
    baseline = upf_program()
    return {name: analyze_linked(name, link(baseline,
                                            compile_property(name)),
                                 baseline)
            for name in TABLE1_ORDER}


def test_table1_loc_columns(rows):
    assert [row.name for row in rows] == list(TABLE1_ORDER)
    for row in rows:
        assert row.indus_loc > 0
        # Conciseness claim (Section 6.1): the generated P4 is always
        # substantially longer.  Application filtering is ~2x in the
        # paper too (64 -> 126); every other row is >= 4x.
        floor = 2 if row.name == "application_filtering" else 4
        assert row.p4_loc >= floor * row.indus_loc, row.name
        # And within 2x of the paper's Indus line counts.
        assert row.indus_loc <= 2 * row.paper_indus_loc, row.name


def test_table1_renders_every_row(rows):
    text = format_table(rows)
    assert "Baseline" in text
    for name in TABLE1_ORDER:
        assert name in text


def test_table1_stages_column(rows, reports):
    """The paper's headline: no checker increases the stage count."""
    for row in rows:
        assert row.stages == BASELINE_STAGES, row.name
        assert reports[row.name].stages == BASELINE_STAGES, row.name


def test_table1_phv_column(rows, reports):
    for row in rows:
        # Modest overhead: every checker adds PHV, and stays under
        # baseline + 12 points (the paper's worst case is +7.61).
        assert BASELINE_PHV_PCT < row.phv_pct <= BASELINE_PHV_PCT + 12, \
            row.name
        assert reports[row.name].phv_pct == row.phv_pct, row.name


def test_table1_phv_ordering_follows_telemetry_volume(reports):
    """Checkers carrying more telemetry cost more PHV: the ordering the
    paper reports (source-route path validation and application
    filtering highest)."""
    delta = {name: report.phv_delta_bits for name, report in reports.items()}
    heavy = max(delta["source_routing_validation"],
                delta["application_filtering"])
    for name in ("waypointing", "egress_port_validity", "routing_validity"):
        assert delta[name] < heavy, name
    assert delta["source_routing_validation"] > delta["waypointing"]
    assert delta["application_filtering"] > delta["egress_port_validity"]
    assert delta["loops"] > delta["waypointing"]
