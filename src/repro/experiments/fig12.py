"""Figure 12 reproduction: Hydra's performance overhead.

The paper's setup: the Aether leaf-spine fabric; bidirectional UDP
background traffic saturating ~half of each link via ECMP; a fast ping
between servers on different leaves; RTT compared between a baseline
run and a run with *all* checkers enabled, over time (12a) and as a CDF
with a t-test (12b).

Scaling substitution: our substrate is an event-driven simulator, so we
scale the experiment down linearly — link rate, offered load, ping
interval, and duration shrink together; utilization ratios and therefore
distribution *shapes* are preserved.  The latency model charges each
switch ``stages x stage_delay`` (independent of the program, since the
checkers add no stages) plus serialization of actual bytes — so Hydra's
only cost is its telemetry bytes on the wire, which is why the paper
finds no significant difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..aether.upf import upf_program
from ..net.simulator import Network
from ..net.topology import Topology, leaf_spine
from ..obs import NULL_OBS, Observability, profiled
from ..p4.bmv2 import Bmv2Switch
from ..properties import TABLE1_ORDER, compile_suite
from ..runtime.deployment import HydraDeployment
from ..stats import TTestResult, cdf_points, mean, welch_t_test
from ..workloads.traffic import EchoResponder, Pinger, UdpLoadGenerator

# Checkers that can run meaningfully on plain fabric transit traffic.
ALL_CHECKERS: List[str] = list(TABLE1_ORDER)


@dataclass
class Fig12Config:
    """Scaled-down experiment parameters (see module docstring)."""

    link_bandwidth_bps: float = 100e6
    link_latency_s: float = 1e-6
    load_bps_per_pair: float = 40e6
    load_packet_len: int = 1400
    duration_s: float = 0.4
    ping_interval_s: float = 0.002
    seed: int = 11
    engine: str = "codegen"  # Bmv2Switch execution engine for every switch
    optimize: bool = False  # run the dataflow optimizer on every checker
    batched: bool = False  # Network batch hot loop (timing-identical)


@dataclass
class RttRun:
    """One experiment arm: its RTT series and summary stats."""

    label: str
    series: List[Tuple[float, float]]  # (send time s, RTT ms)
    rtts_ms: List[float]
    packets_lost: int = 0

    @property
    def mean_ms(self) -> float:
        return mean(self.rtts_ms)


@dataclass
class Fig12Result:
    baseline: RttRun
    with_checkers: RttRun
    t_test: TTestResult = field(default=None)  # type: ignore[assignment]

    def cdfs(self, num_points: int = 50):
        return (cdf_points(self.baseline.rtts_ms, num_points),
                cdf_points(self.with_checkers.rtts_ms, num_points))


def build_fabric(checkers: Optional[List[str]],
                 config: Fig12Config,
                 obs: Optional[Observability] = None,
                 ) -> Tuple[Network, Optional[HydraDeployment]]:
    """The Aether fabric (2x2 leaf-spine running fabric-upf), with or
    without a full suite of Hydra checkers linked in."""
    obs = obs if obs is not None else NULL_OBS
    topology = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2,
                          link_latency_s=config.link_latency_s,
                          bandwidth_bps=config.link_bandwidth_bps)
    forwarding = dict.fromkeys(topology.switches, upf_program("fabric_upf"))
    deployment: Optional[HydraDeployment] = None
    if checkers:
        with profiled(obs.registry, "compile"):
            compiled = compile_suite(checkers, optimize=config.optimize)
        deployment = HydraDeployment(topology, compiled, forwarding,
                                     engine=config.engine, obs=obs,
                                     batched=config.batched)
        network = deployment.network
        switches = deployment.switches
    else:
        switches = {
            name: Bmv2Switch(forwarding[name], name=name,
                             switch_id=spec.switch_id,
                             engine=config.engine, obs=obs)
            for name, spec in topology.switches.items()
        }
        network = Network(topology, switches, obs=obs,
                          batched=config.batched)
    install_fabric_routes(topology, switches)
    if deployment is not None:
        configure_checker_controls(deployment, topology)
    return network, deployment


def install_fabric_routes(topology: Topology,
                           switches: Dict[str, Bmv2Switch]) -> None:
    """Host routes + ECMP default on leaves; leaf subnets on spines."""
    leaves = sorted(n for n, s in topology.switches.items() if s.is_leaf)
    spines = sorted(n for n, s in topology.switches.items() if s.is_spine)
    hosts_by_leaf: Dict[str, List[Tuple[str, int]]] = {l: [] for l in leaves}
    for host in topology.hosts:
        attach = topology.host_attachment(host)
        hosts_by_leaf[attach.node].append((host, attach.port))
    for li, leaf in enumerate(leaves, start=1):
        bmv2 = switches[leaf]
        for host, port in hosts_by_leaf[leaf]:
            bmv2.insert_entry("upf_routes",
                              [(topology.hosts[host].ipv4, 32)],
                              "upf_route", [port])
        uplink0 = max(p for _, p in hosts_by_leaf[leaf]) + 1
        bmv2.insert_entry("upf_routes", [(0, 0)],
                          "upf_route_ecmp", [len(spines)])
        for j in range(len(spines)):
            bmv2.insert_entry("upf_ecmp_table", [j],
                              "upf_ecmp_port", [uplink0 + j])
    for spine in spines:
        bmv2 = switches[spine]
        for li, leaf in enumerate(leaves, start=1):
            prefix = (10 << 24) | (li << 8)
            bmv2.insert_entry("upf_routes", [(prefix, 24)],
                              "upf_route", [li])


def configure_checker_controls(deployment: HydraDeployment,
                               topology: Topology) -> None:
    """Control-plane configuration that makes all Table-1 checkers pass
    on healthy fabric transit traffic (what the paper's deployment does
    before measuring overhead)."""
    deployed = {c.name for c in deployment.compileds}
    spines = [n for n, s in topology.switches.items() if s.is_spine]
    leaves = [n for n, s in topology.switches.items() if s.is_leaf]

    if "multi_tenancy" in deployed:
        # One tenant everywhere: every port maps to tenant 0 (dict miss
        # yields 0 on both ends, consistent) — nothing to install.
        pass
    if "load_balance" in deployed:
        for leaf in leaves:
            ports = topology.ports_of(leaf)
            uplinks = ports[-2:]
            deployment.set_control("left_port", uplinks[0], switch=leaf)
            deployment.set_control("right_port", uplinks[1], switch=leaf)
            for port in uplinks:
                deployment.dict_put("is_uplink", port, True, switch=leaf)
        deployment.set_control("thresh", (1 << 31))  # report-free run
    if "stateful_firewall" in deployed:
        # Permit-all so the overhead run is verdict-neutral.
        deployment.dict_put_ranges(
            "allowed", [(0, 0xFFFFFFFF), (0, 0xFFFFFFFF)], True)
    if "vlan_isolation" in deployed:
        # Untagged traffic reads VLAN id 0; provision it everywhere.
        deployment.dict_put("vlan_configured", 0, True)
    if "egress_port_validity" in deployed:
        for switch in topology.switches:
            for port in topology.ports_of(switch):
                deployment.set_add("allowed_ports", port, switch=switch)
    if "routing_validity" in deployed:
        for name, spec in topology.switches.items():
            deployment.set_control("routing_validity:is_leaf", spec.is_leaf,
                                   switch=name)
            deployment.set_control("routing_validity:is_spine", spec.is_spine,
                                   switch=name)
    if "waypointing" in deployed:
        # Spines are the choke points; all measured traffic crosses one.
        for name, spec in topology.switches.items():
            deployment.set_control("is_waypoint", spec.is_spine, switch=name)
    if "service_chain" in deployed:
        deployment.set_control("chain_len", 0)
        deployment.set_control("chain_pos", 0)
    if "source_routing_validation" in deployed:
        for link in topology.links:
            a, b = link.a.node, link.b.node
            if a in topology.switches and b in topology.switches:
                ida = topology.switch_id(a)
                idb = topology.switch_id(b)
                deployment.dict_put("allowed_edge", (ida, idb), True)
                deployment.dict_put("allowed_edge", (idb, ida), True)


def run_rtt_experiment(checkers: Optional[List[str]], label: str,
                       config: Optional[Fig12Config] = None,
                       obs: Optional[Observability] = None) -> RttRun:
    """One arm of Figure 12: load + ping, returns the RTT series."""
    config = config or Fig12Config()
    network, _ = build_fabric(checkers, config, obs=obs)
    # Background load: h1<->h3 and h2<->h4, crossing the spines via ECMP.
    for i, (a, b) in enumerate((("h1", "h3"), ("h2", "h4"))):
        UdpLoadGenerator(network, a, b, config.load_bps_per_pair,
                         packet_len=config.load_packet_len,
                         seed=config.seed + i).schedule(config.duration_s)
    EchoResponder(network, "h3")
    pinger = Pinger(network, "h1", "h3", interval_s=config.ping_interval_s)
    pinger.schedule(config.duration_s)
    network.run()
    return RttRun(label=label, series=pinger.series(),
                  rtts_ms=pinger.rtts_ms,
                  packets_lost=network.packets_lost)


def run_fig12(config: Optional[Fig12Config] = None,
              checkers: Optional[List[str]] = None) -> Fig12Result:
    """Both arms + the t-test of Figure 12b."""
    config = config or Fig12Config()
    baseline = run_rtt_experiment(None, "Baseline", config)
    with_checkers = run_rtt_experiment(checkers or ALL_CHECKERS,
                                       "All Checkers", config)
    result = Fig12Result(baseline=baseline, with_checkers=with_checkers)
    result.t_test = welch_t_test(baseline.rtts_ms, with_checkers.rtts_ms)
    return result
