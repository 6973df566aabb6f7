"""Topology file format + compiler driver (per-switch codegen) tests."""

import json
import os

import pytest

from repro.cli import main
from repro.compiler import compile_program
from repro.compiler.driver import (deployment_manifest, forwarding_factory,
                                   link_switches, write_deployment)
from repro.net.packet import format_ip, ip
from repro.net.topofile import (TopologyFormatError, load_topology,
                                save_topology, topology_from_dict,
                                topology_to_dict)
from repro.net.topology import EDGE, leaf_spine
from repro.p4 import Bmv2Switch, render
from repro.properties import compile_property
from repro.runtime import HydraDeployment


# ---------------------------------------------------------------------------
# Topology files
# ---------------------------------------------------------------------------

def test_roundtrip_leaf_spine(tmp_path):
    topo = leaf_spine(2, 2, 2)
    path = tmp_path / "topo.json"
    save_topology(topo, str(path))
    loaded = load_topology(str(path))
    assert set(loaded.switches) == set(topo.switches)
    assert set(loaded.hosts) == set(topo.hosts)
    assert len(loaded.links) == len(topo.links)
    for name in topo.switches:
        assert loaded.switches[name].role == topo.switches[name].role
        assert sorted(loaded.switches[name].edge_ports) == \
            sorted(topo.switches[name].edge_ports)
    for name in topo.hosts:
        assert loaded.hosts[name].ipv4 == topo.hosts[name].ipv4


def test_dotted_quad_addresses():
    topo = topology_from_dict({
        "switches": [{"name": "s1", "role": "edge"}],
        "hosts": [{"name": "h1", "ipv4": "10.0.1.1"}],
        "links": [{"a": ["s1", 1], "b": ["h1", 0]}],
    })
    assert topo.hosts["h1"].ipv4 == ip(10, 0, 1, 1)
    assert format_ip(topo.hosts["h1"].ipv4) == "10.0.1.1"


def test_link_attributes_parsed():
    topo = topology_from_dict({
        "switches": [{"name": "s1", "role": "edge"}],
        "hosts": [{"name": "h1"}],
        "links": [{"a": ["s1", 1], "b": ["h1", 0],
                   "latency_us": 5, "bandwidth_gbps": 40}],
    })
    link = topo.links[0]
    assert link.latency_s == pytest.approx(5e-6)
    assert link.bandwidth_bps == pytest.approx(40e9)


@pytest.mark.parametrize("document, fragment", [
    ([], "object"),
    ({"switches": [{"role": "edge"}]}, "name"),
    ({"switches": [{"name": "s1", "role": "purple"}]}, "role"),
    ({"hosts": [{"name": "h1", "ipv4": "10.0.1"}]}, "IPv4"),
    ({"hosts": [{"name": "h1", "ipv4": "10.0.1.999"}]}, "IPv4"),
    ({"switches": [{"name": "s1"}], "links": [{"a": ["s1", 1]}]}, "link"),
])
def test_malformed_documents_rejected(document, fragment):
    with pytest.raises(TopologyFormatError) as excinfo:
        topology_from_dict(document)
    assert fragment.lower() in str(excinfo.value).lower()


def _one_link(**link):
    return {"switches": [{"name": "s1", "role": "edge"}],
            "hosts": [{"name": "h1"}],
            "links": [dict({"a": ["s1", 1], "b": ["h1", 0]}, **link)]}


_KINDS = {"switches": "switch", "hosts": "host", "links": "link"}


@pytest.mark.parametrize("document, named, fragment", [
    ({"switches": 5}, None, "'switches' must be a list"),
    ({"switches": [5]}, "switches", "must be an object"),
    (_one_link(a=["s1", "x"]), "links", "port must be an integer"),
    (_one_link(a=["s1", 1.5]), "links", "port must be an integer"),
    (_one_link(b=["h9", 0]), "links", "unknown node 'h9'"),
    ({"switches": [{"name": "s1"}], "hosts": [{"name": "s1"}]}, "hosts",
     "duplicate node name 's1'"),
    (dict(_one_link(), hosts=[{"name": "h1"}, {"name": "h2"}],
          links=[{"a": ["s1", 1], "b": ["h1", 0]},
                 {"a": ["s1", 1], "b": ["h2", 0]}]),
     "links", "port already wired"),
    (_one_link(latency_us=-5), "links",
     "'latency_us' must be finite and >= 0"),
    (_one_link(latency_us="inf"), "links",
     "'latency_us' must be finite and >= 0"),
    (_one_link(latency_us="abc"), "links", "could not convert"),
    (_one_link(bandwidth_gbps=0), "links",
     "'bandwidth_gbps' must be finite and > 0"),
    (_one_link(bandwidth_gbps="nan"), "links",
     "'bandwidth_gbps' must be finite and > 0"),
])
def test_each_refusal_is_a_format_error_naming_its_entry(document, named,
                                                         fragment):
    with pytest.raises(TopologyFormatError) as excinfo:
        topology_from_dict(document)
    message = str(excinfo.value)
    assert fragment in message
    if named is not None:
        assert message.startswith(
            f"{_KINDS[named]} {document[named][-1]!r}: ")


@pytest.mark.parametrize("links", [
    [{"a": ["leaf1", "one"], "b": ["h1", 0]}],
    [{"a": ["leaf1", 1], "b": ["h1", 0], "bandwidth_gbps": 0}],
])
def test_codegen_reports_a_malformed_topology(tmp_path, capsys, links):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({
        "switches": [{"name": "leaf1", "role": "edge"}],
        "hosts": [{"name": "h1"}], "links": links}))
    code = main(["codegen", "loops", "--topology", str(path),
                 "-o", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: link {")


def test_invalid_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TopologyFormatError):
        load_topology(str(path))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _per_switch(profile, topo):
    factory = forwarding_factory(profile)
    return {name: factory(name) for name in topo.switches}


def test_link_switches_respects_roles():
    topo = leaf_spine(2, 2, 2)
    compiled = compile_program("{ } { } { reject; }", name="t")
    programs = link_switches(topo, compiled, _per_switch("l2", topo))
    assert set(programs) == set(topo.switches)
    # Edge programs contain the reject enforcement; core programs don't.
    assert compiled.reject_meta in repr(programs["leaf1"].egress)
    assert compiled.reject_meta not in repr(programs["spine1"].egress)


def test_unknown_forwarding_profile():
    with pytest.raises(ValueError):
        forwarding_factory("quantum")


def test_all_profiles_resolve_and_link():
    topo = leaf_spine(2, 2, 2)
    compiled = compile_program("tele bit<8> x;\n{ } { } { }", name="t")
    for profile in ("l2", "ipv4", "srcroute", "fabric", "vlan", "upf"):
        programs = link_switches(topo, compiled, _per_switch(profile, topo))
        assert len(programs) == 4


def test_write_deployment(tmp_path):
    topo = leaf_spine(2, 2, 2)
    compiled = compile_program("tele bit<8> x;\n{ } { } { }", name="demo")
    written = write_deployment(compiled, topo, str(tmp_path),
                               forwarding="srcroute")
    for name in topo.switches:
        path = written[name]
        assert os.path.exists(path)
        text = open(path).read()
        assert "hydra_t" in text  # telemetry header present
    manifest = json.load(open(written["__manifest__"]))
    assert manifest["checker"] == "demo"
    leaf1 = manifest["writes"]["leaf1"]["entries"]
    assert [e["match"] for e in leaf1] == [[1], [1], [2], [2]]
    assert [e["table"] for e in leaf1] == [compiled.inject_table,
                                           compiled.strip_table] * 2
    assert manifest["writes"]["spine1"]["entries"] == []


@pytest.mark.parametrize("prop, profile", [
    ("loops", "l2"), ("source_routing_validation", "srcroute")])
def test_the_written_deployment_is_the_deployed_one(tmp_path, prop, profile):
    """A control plane that applies only the manifest's writes to the
    written programs builds the switches ``HydraDeployment`` deploys."""
    topo = leaf_spine(2, 2, 2)
    compiled = compile_property(prop)
    written = write_deployment(compiled, topo, str(tmp_path),
                               forwarding=profile)
    manifest = json.load(open(written["__manifest__"]))
    deployment = HydraDeployment(topo, compiled, _per_switch(profile, topo))
    programs = link_switches(topo, compiled, _per_switch(profile, topo))
    switches = {name: Bmv2Switch(programs[name], name=name)
                for name in topo.switches}
    writes = manifest["writes"]
    for name, write in writes.items():
        for entry in write["entries"]:
            switches[name].insert_entry(entry["table"], entry["match"],
                                        entry["action"])
    for name, write in writes.items():
        for default in write["defaults"]:
            switches[name].set_default_action(
                default["table"], default["action"], default["args"])
    for name, switch in switches.items():
        deployed = deployment.switches[name]
        assert open(written[name]).read() == render(deployment.linked[name])
        assert switch.entries == deployed.entries, name
        assert switch.default_actions == deployed.default_actions, name
    if prop == "loops":
        assert {name: write["defaults"][0]["args"]
                for name, write in writes.items()} == {
            name: [spec.switch_id] for name, spec in topo.switches.items()}
        assert sorted(spec.switch_id for spec in topo.switches.values()) \
            == [1, 2, 3, 4]


def test_manifest_report_sites():
    topo = leaf_spine(2, 2, 2)
    compiled = compile_program(
        "header bit<16> dport @ udp.dst_port;\n"
        "{ } { } { report((dport, dport)); }", name="r")
    manifest = deployment_manifest(compiled, topo)
    sites = manifest["report_sites"]
    assert len(sites) == 1
    (site,) = sites.values()
    assert site["block"] == "checker"
    assert site["payload_widths"] == [16, 16]
