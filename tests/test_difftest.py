"""Differential-oracle smoke tests (tentpole of the difftest subsystem).

The heavy campaigns run via ``python -m repro difftest``; these tests
keep the machinery honest in tier-1: generation is deterministic and
serializable, a handful of seeds agree across all three levels, an
injected compiler mutation is caught and shrunk to a reproducer, and
the CLI wires it all together.
"""

import json
import random

import pytest

from repro.cli import main
from repro.difftest import (Minimizer, Scenario, dump_reproducer,
                            gen_scenario, inject_mutation, run_difftest,
                            run_scenario)

pytestmark = pytest.mark.difftest


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

def test_gen_scenario_deterministic():
    assert gen_scenario(42).to_json() == gen_scenario(42).to_json()
    assert gen_scenario(42).to_json() != gen_scenario(43).to_json()


def test_scenario_json_roundtrip():
    scenario = gen_scenario(7)
    clone = Scenario.from_json(json.loads(json.dumps(scenario.to_json())))
    assert clone.to_json() == scenario.to_json()
    assert clone.source() == scenario.source()


def test_scenario_copy_is_deep():
    scenario = gen_scenario(3)
    clone = scenario.copy()
    clone.program.checker.append("v0 = 1;")
    clone.packets.pop()
    assert clone.to_json() != scenario.to_json() or (
        len(scenario.packets) != len(clone.packets))


def test_generated_programs_typecheck():
    from repro.indus import check, parse

    for seed in range(30):
        source = gen_scenario(seed).program.render()
        check(parse(source))   # must not raise


# ---------------------------------------------------------------------------
# The oracle itself
# ---------------------------------------------------------------------------

def test_oracle_agrees_on_smoke_seeds():
    summary = run_difftest(seed=0, iters=8)
    assert summary.ok, summary.failures
    assert summary.packets_run > 0
    assert summary.reports_checked > 0


def test_single_scenario_result_shape():
    result = run_scenario(gen_scenario(1))
    assert result.failure is None
    assert result.packets_run == len(result.scenario.packets)


def _deterministic_content(dump):
    """Project a registry dump onto its run-deterministic content:
    counter/gauge values and histogram *observation counts* — timing
    sums and bucket spreads are wall-clock and vary run to run."""
    out = {}
    for name, entry in dump.items():
        series = []
        for s in entry["series"]:
            if "value" in s:
                series.append((tuple(sorted(s["labels"].items())),
                               s["value"]))
            else:
                series.append((tuple(sorted(s["labels"].items())),
                               s["count"]))
        out[name] = (entry["kind"], sorted(series))
    return out


def test_campaign_feeds_the_callers_registry():
    """A campaign threads the caller's registry through every scenario:
    it ends up holding what the same scenarios run one by one put in."""
    from repro import api
    from repro.obs import MetricsRegistry, Observability

    campaign = Observability(registry=MetricsRegistry())
    one_by_one = Observability(registry=MetricsRegistry())
    summary = api.difftest(seed=7, iters=4, stop_on_failure=False,
                           obs=campaign)
    assert summary.iterations == 4
    for seed in range(7, 11):
        api.run_scenario(seed=seed, obs=one_by_one)
    content = _deterministic_content(campaign.registry.to_dict())
    assert content
    assert content == _deterministic_content(one_by_one.registry.to_dict())


# ---------------------------------------------------------------------------
# The subject is the build we ship, compared hop by hop
# ---------------------------------------------------------------------------

def _keep_deployments(monkeypatch, tweak=None):
    """Capture each engine's deployment as the oracle builds it, after
    ``tweak(engine, deployment)`` if given."""
    from repro.difftest import harness

    built = {}
    build = harness.build_scenario_deployment

    def keep(scenario, compiled, engine="codegen", obs=None):
        built[engine] = deployment = build(scenario, compiled,
                                           engine=engine, obs=obs)
        if tweak is not None:
            tweak(engine, deployment)
        return deployment

    monkeypatch.setattr(harness, "build_scenario_deployment", keep)
    return built


def test_the_subject_is_the_shipped_build(monkeypatch):
    """The reference is interp in event mode; the subject is codegen
    uninstrumented on the batched plane, with the same entries written
    in bulk, and its run memos form."""
    built = _keep_deployments(monkeypatch)
    result = run_scenario(gen_scenario(7))   # three switches, controls set
    assert result.ok and result.hops_checked > 0
    reference, subject = built["interp"], built["codegen"]
    assert not reference.network._eager
    assert subject.network._eager and not subject.obs.live
    runs = [sw.engine_counts()["runs"] for sw in subject.switches.values()]
    assert sum(r["sites"] for r in runs) > 0
    assert sum(r["fills"] for r in runs) > 0
    for name, sw in subject.switches.items():
        assert "TR." not in sw._engine.source
        assert sw.entries == reference.switches[name].entries
        assert sw.index_counts()["fwd_table"]["rebuilds"] == 0
    for deployment in built.values():     # the last packet's hops
        hops = deployment.network.hops
        assert sum(hop.digests for hop in hops) == len(deployment.reports) > 0


def test_engines_are_compared_hop_by_hop(monkeypatch):
    """A subject whose switches take one stage longer delivers the same
    bytes, verdicts, reports and registers; only the per-hop comparison,
    times included, sees the difference."""
    def slower(engine, deployment):
        if engine == "codegen":
            for device in deployment.network.switches.values():
                device.stages += 1

    _keep_deployments(monkeypatch, slower)
    failure = run_scenario(gen_scenario(0)).failure
    assert failure is not None and failure.kind == "engine"
    assert failure.message.startswith("hops differ, hop 0 t: ")


# ---------------------------------------------------------------------------
# One front-end pass, still an independent reference
# ---------------------------------------------------------------------------

POOL = 48  # the scenarios bench/wl_oracle.py runs


def test_one_parse_per_scenario(monkeypatch):
    """The oracle lexes, parses and checks a scenario's source once: the
    compiler and the reference monitor are handed the same checked AST."""
    from repro.compiler import codegen
    from repro.difftest import harness

    calls = []

    def counting(text):
        calls.append(text)
        return parse(text)

    parse = harness.parse
    assert codegen.parse is parse
    monkeypatch.setattr(harness, "parse", counting)
    monkeypatch.setattr(codegen, "parse", counting)
    for seed in range(4):
        scenario = gen_scenario(seed)
        assert run_scenario(scenario).ok
        assert calls == [scenario.source()]
        calls.clear()


def test_compiling_a_checked_program_is_compiling_its_source():
    """Handing the compiler the AST instead of the text changes nothing
    it emits: every switch of every pool scenario's deployment generates
    the same module either way."""
    from repro.compiler import compile_program
    from repro.difftest.harness import build_scenario_deployment
    from repro.indus import check, parse

    for seed in range(POOL):
        scenario = gen_scenario(seed)
        source = scenario.source()
        sources = [
            {name: switch._engine.source for name, switch in
             build_scenario_deployment(
                 scenario, compile_program(program, name=f"dt{seed}")
             ).switches.items()}
            for program in (source, check(parse(source)))]
        assert sources[0] == sources[1], seed


def test_nothing_writes_the_ast_the_monitor_reads():
    """What keeps the reference independent with one front end: neither
    the compiler (plain or optimizing) nor any injected mutation touches
    the checked AST; they work on the IR compiled from it."""
    from repro.compiler import compile_program
    from repro.indus import ast_equal, check, parse

    kinds = ("op", "const", "kill_write", "orphan")
    for seed in range(POOL):
        source = gen_scenario(seed).source()
        checked = check(parse(source))
        compiled = [compile_program(checked, name=f"dt{seed}", optimize=True)]
        for kind in kinds:
            compiled.append(compile_program(checked, name=f"dt{seed}"))
            inject_mutation(compiled[-1], random.Random(seed), kinds=(kind,))
        assert all(c.checked is checked for c in compiled)
        assert ast_equal(checked.program, parse(source)), seed


# ---------------------------------------------------------------------------
# Mutation injection, catching, and shrinking
# ---------------------------------------------------------------------------

def _mutating_check(seed):
    """A minimizer check that re-applies the same deterministic mutation
    to every candidate's compiled checker before running the oracle."""
    def check(scenario):
        return run_scenario(
            scenario,
            mutate=lambda c: inject_mutation(c, random.Random(seed)),
        ).failure
    return check


def test_injected_mutation_caught_and_shrunk(tmp_path):
    # Seed 0 injects a checker operator swap the oracle catches (see
    # ``repro difftest --inject-bug``); shrink it with the mutation held
    # fixed and dump the reproducer bundle.
    scenario = gen_scenario(0)
    check = _mutating_check(0)
    failure = check(scenario)
    assert failure is not None, "mutation was expected to be caught"

    minimizer = Minimizer(check=check)
    shrunk, shrunk_failure = minimizer.minimize(scenario)
    assert shrunk_failure is not None
    assert len(shrunk.packets) <= len(scenario.packets)
    assert minimizer.evaluations > 0

    json_path, indus_path = dump_reproducer(shrunk, shrunk_failure,
                                            str(tmp_path), name="mut")
    bundle = json.loads(open(json_path).read())
    assert bundle["failure"]["kind"] == shrunk_failure.kind
    replayed = Scenario.from_json(bundle["scenario"])
    assert check(replayed) is not None   # the bundle still reproduces
    assert open(indus_path).read().strip() == shrunk.source().strip()


def test_mutation_campaign_catches_some():
    summary = run_difftest(seed=0, iters=6, inject_bug=True)
    assert summary.mutations_injected > 0
    assert summary.mutations_caught > 0
    assert summary.ok    # caught mutations are not recorded as failures


def test_minimizer_requires_a_failing_scenario():
    with pytest.raises(ValueError):
        Minimizer().minimize(gen_scenario(1))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_difftest_clean(capsys):
    assert main(["difftest", "--seed", "0", "--iters", "3"]) == 0
    out = capsys.readouterr().out
    assert "all three levels agree" in out


def test_cli_difftest_inject_bug(capsys):
    assert main(["difftest", "--seed", "0", "--iters", "1",
                 "--inject-bug"]) == 0
    out = capsys.readouterr().out
    assert "mutations injected: 1, caught: 1" in out
