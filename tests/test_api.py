"""The repro.api facade: the stable public surface.

The facade is a compatibility contract: six verbs with uniform
keyword-only ``engine=`` / ``obs=`` / ``seed=`` arguments,
re-exported from the top-level package.  These tests pin the surface
(so an accidental rename breaks loudly here, not in user code).
"""

import warnings

import pytest

import repro
from repro import api
from repro.difftest import Scenario, gen_scenario
from repro.obs import MetricsRegistry, Observability


def test_api_all_is_curated():
    assert api.__all__ == sorted(api.__all__)
    for name in api.__all__:
        assert callable(getattr(api, name))


def test_top_level_reexports():
    assert repro.compile_indus is api.compile_indus
    assert repro.deploy is api.deploy
    assert repro.run_scenario is api.run_scenario
    assert repro.lint is api.lint
    for name in ("api", "compile_indus", "deploy", "lint",
                 "run_scenario"):
        assert name in repro.__all__
    # The campaign verb is deliberately NOT re-exported at top level:
    # `repro.difftest` must stay the subpackage of that name.
    import repro.difftest as difftest_pkg
    assert repro.difftest is difftest_pkg
    assert "difftest" not in repro.__all__
    assert callable(api.difftest)


def test_compile_indus_accepts_property_name():
    compiled = api.compile_indus("loops")
    assert compiled.name == "loops"


def test_compile_indus_accepts_source_text():
    source = gen_scenario(3).source()
    compiled = api.compile_indus(source, name="from_source")
    assert compiled.name == "from_source"


def test_compile_indus_accepts_file_path(tmp_path):
    path = tmp_path / "prop.indus"
    path.write_text(gen_scenario(3).source())
    compiled = api.compile_indus(str(path))
    assert compiled.name == "prop"


def test_deploy_requires_scenario_or_topology():
    compiled = api.compile_indus("loops")
    with pytest.raises(TypeError):
        api.deploy(compiled)


def test_deploy_scenario_and_run():
    scenario = gen_scenario(3)
    compiled = api.compile_indus(scenario.source(), name="dt3")
    obs = Observability(registry=MetricsRegistry())
    deployment = api.deploy(compiled, scenario=scenario, obs=obs)
    from repro.difftest.harness import build_packet

    packet = build_packet(scenario.packets[0], deployment.topology,
                          scenario.src_host, scenario.dst_host)
    deployment.network.host(scenario.src_host).send(packet)
    deployment.network.run()
    dump = obs.registry.to_dict()
    assert sum(s["value"] for s in
               dump["switch_packets_total"]["series"]) > 0


def test_every_entry_point_defaults_to_the_shipped_build(monkeypatch):
    """Built with no mode arguments, each entry point runs what the
    benchmark measures and the oracle verifies: a batched network of
    codegen switches.  Event mode is the reference a caller names."""
    from repro.aether import AetherTestbed
    from repro.experiments import fig12, throughput
    from repro.net import Network
    from repro.net.topology import leaf_spine, single_switch
    from repro.p4 import Bmv2Switch
    from repro.p4.programs import l2_port_forwarding
    from repro.runtime.deployment import HydraDeployment
    from repro.runtime.scenarios import SourceRoutingTestbed

    def network_of(topology, **kwargs):
        return Network(topology, {name: Bmv2Switch(l2_port_forwarding())
                                  for name in topology.switches}, **kwargs)

    compiled = api.compile_indus("loops")
    topology = leaf_spine(2, 2, 2)
    forwarding = dict.fromkeys(topology.switches, l2_port_forwarding())
    replayed = []

    def build_fabric(*args):
        built = fig12.build_fabric(*args)
        replayed.append(built[0])
        return built

    monkeypatch.setattr(throughput, "build_fabric", build_fabric)
    throughput.run_replay(None, "arm", rate_pps=2_000, duration_s=0.002)
    networks = [
        network_of(single_switch(2)),
        HydraDeployment(topology, compiled, forwarding).network,
        AetherTestbed().network,
        fig12.build_fabric(None, fig12.Fig12Config())[0],
        SourceRoutingTestbed().network,
        replayed[0],
        api.deploy(compiled, topology=topology,
                   forwarding=forwarding).network,
    ]
    for network in networks:
        assert network._eager
        assert {device.bmv2.engine for device in network.switches.values()
                } == {"codegen"}

    scenario = gen_scenario(3)
    checker = api.compile_indus(scenario.source(), name="dt3")
    reference = api.deploy(checker, scenario=scenario, engine="interp")
    assert not network_of(single_switch(2), batched=False)._eager
    assert not reference.network._eager
    assert {device.bmv2.engine for device
            in reference.network.switches.values()} == {"interp"}


def test_run_scenario_by_seed_and_by_scenario():
    by_seed = api.run_scenario(seed=7)
    by_int = api.run_scenario(7)
    by_obj = api.run_scenario(gen_scenario(7))
    assert by_seed.ok and by_int.ok and by_obj.ok
    assert (by_seed.packets_run == by_int.packets_run
            == by_obj.packets_run)
    assert isinstance(by_obj.scenario, Scenario)


def test_run_scenario_requires_an_input():
    with pytest.raises(TypeError):
        api.run_scenario()


def test_lint_verb_accepts_all_program_forms(tmp_path):
    from repro.analysis import Diagnostic

    by_name = api.lint("loops")
    by_compiled = api.lint(api.compile_indus("loops"))
    path = tmp_path / "loops.indus"
    from repro.properties import load_source

    path.write_text(load_source("loops"))
    by_path = api.lint(str(path))
    for diags in (by_name, by_compiled, by_path):
        assert all(isinstance(d, Diagnostic) for d in diags)
    assert ([d.rule for d in by_name] == [d.rule for d in by_compiled]
            == [d.rule for d in by_path])


def test_lint_verb_only_filter():
    diags = api.lint("stateful_firewall", only=["IH006"])
    assert all(d.rule == "IH006" for d in diags)


def test_difftest_verb_matches_run_difftest():
    from repro.difftest import run_difftest

    via_api = api.difftest(seed=7, iters=3)
    direct = run_difftest(seed=7, iters=3)
    assert via_api.verdicts == direct.verdicts


# -- the facade spellings never warn ----------------------------------------

def test_new_names_do_not_warn():
    scenario = gen_scenario(3)
    compiled = api.compile_indus(scenario.source(), name="dt3")
    from repro.difftest.harness import build_scenario_deployment

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        build_scenario_deployment(scenario, compiled)
        api.deploy(compiled, scenario=scenario)


def test_difftest_summary_reexport():
    from repro.difftest import DifftestSummary

    assert api.DifftestSummary is DifftestSummary
    summary = api.difftest(seed=7, iters=1)
    assert isinstance(summary, api.DifftestSummary)
