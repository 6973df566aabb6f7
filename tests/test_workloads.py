"""Workload tests: campus trace generator (determinism, heavy tail),
the replay feed, traffic processes."""

import gc
import random
import weakref
import zlib
from itertools import islice
from types import FunctionType, MethodType, ModuleType

import pytest

from repro.experiments.fig12 import Fig12Config, build_fabric
from repro.experiments.throughput import ReplayFeed
from repro.net.packet import Packet, ip, make_udp
from repro.net.simulator import Network
from repro.net.topology import leaf_spine, single_switch
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding
from repro.workloads import (LOAD_PORT, CampusTraceGenerator,
                             EchoResponder, Pinger, UdpLoadGenerator)
from repro.workloads.campus import (_PACKET_SIZES as PACKET_SIZES,
                                    CONCURRENT_FLOWS, payload_len)


# ---------------------------------------------------------------------------
# Campus trace generator
# ---------------------------------------------------------------------------

def test_trace_is_deterministic_under_seed():
    a = [p.length for p in CampusTraceGenerator(seed=1).packets(200)]
    b = [p.length for p in CampusTraceGenerator(seed=1).packets(200)]
    c = [p.length for p in CampusTraceGenerator(seed=2).packets(200)]
    assert a == b
    assert a != c


def test_trace_has_protocol_mix():
    generator = CampusTraceGenerator(seed=3)
    list(generator.packets(500))
    stats = generator.stats
    assert stats.tcp_packets > stats.udp_packets > 0


def test_trace_sources_come_from_campus_subnets():
    generator = CampusTraceGenerator(seed=4)
    for packet in generator.packets(100):
        src = packet.find("ipv4").get("src_addr")
        assert (src >> 16) in ((128 << 8) | 112, (140 << 8) | 180)


def test_flow_sizes_are_heavy_tailed():
    generator = CampusTraceGenerator(seed=5)
    list(generator.packets(3000))
    # Pareto(1.2): plenty of 1-packet flows, some large ones.
    assert generator.stats.flows > 100


def test_timed_packets_respect_duration_and_rate():
    generator = CampusTraceGenerator(seed=6)
    events = list(generator.timed_packets(rate_pps=1000, duration_s=0.5))
    assert events
    times = [t for t, _ in events]
    assert max(times) <= 0.5
    assert times == sorted(times)
    # Within a generous factor of the nominal rate.
    assert 0.5 * 500 <= len(events) <= 2.0 * 500


@pytest.mark.parametrize("reuse", [False, True])
def test_timed_stats_count_what_was_emitted(reuse):
    """The draw that lands past ``duration_s`` is not part of the trace."""
    generator = CampusTraceGenerator(seed=6, reuse_packets=reuse)
    events = list(generator.timed_packets(rate_pps=1000, duration_s=0.5))
    stats = generator.stats
    assert len(events) == stats.packets == 525
    assert stats.bytes == sum(p.length for _, p in events) == 235_388
    assert stats.tcp_packets + stats.udp_packets == stats.packets
    # Reuse mode hands out one template per (flow, size), fresh mode a
    # packet per draw.
    assert len({id(p) for _, p in events}) == (
        len({(p.meta["flow_id"], p.length) for _, p in events}) if reuse
        else len(events))


def test_packets_are_the_draws_mapped():
    a, b = CampusTraceGenerator(seed=7), CampusTraceGenerator(seed=7)
    mapped = [b._packet_for(flow, size)
              for flow, size in islice(b.draws(), 200)]

    def rows(packets):
        return [(p.meta["flow_id"], p.length,
                 [h.to_bits() for h in p.headers]) for p in packets]

    assert rows(a.packets(200)) == rows(mapped)
    assert a.stats.packets == 200 and b.stats.packets == 0


# Golden fingerprints, computed at f85024c (before the generator yielded
# draws).  The tier-1 matrix is what pins random.Random's sequence across
# interpreters.  To regenerate: .claude/skills/verify/SKILL.md.

def timed_packets_crc(seed, reuse):
    generator = CampusTraceGenerator(seed=seed, reuse_packets=reuse)
    return zlib.crc32(repr(
        [(when, p.meta["flow_id"], p.headers[-1].get("src_port"), p.length)
         for when, p in generator.timed_packets(rate_pps=100_000,
                                                duration_s=0.02)]).encode())


@pytest.mark.parametrize("reuse", [False, True])
@pytest.mark.parametrize("seed, crc", [(5, 3958749145), (6, 1711510607),
                                       (9, 504227591)])
def test_timed_packets_are_the_same_trace(seed, crc, reuse):
    assert timed_packets_crc(seed, reuse) == crc


def replay_feed(dst, rate_pps, duration_s):
    """``bench/wl_fabric.py``'s feed at seed 5: h1 -> ``dst`` on the
    2x2x2 fabric."""
    hosts = leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2).hosts
    generator = CampusTraceGenerator(seed=5, reuse_packets=True)
    return generator, ReplayFeed(
        generator, src_ip=hosts["h1"].ipv4, dst_ip=hosts[dst].ipv4,
        rate_pps=rate_pps, duration_s=duration_s)


def emissions_crc(dst, rate_pps, duration_s):
    """The benchmark's ``input_digest`` for the same arguments."""
    _, feed = replay_feed(dst, rate_pps, duration_s)
    return zlib.crc32(repr([(when, packet.length)
                            for when, packet in feed.emissions()]).encode())


@pytest.mark.parametrize("dst, rate_pps, duration_s, crc", [
    ("h2", 400_000.0, 0.2, 3015530964),     # fabric_bare, seed 5
    ("h3", 100_000.0, 0.06, 684468820),     # fabric_checked, seed 5
])
def test_replay_feed_emits_the_same_trace(dst, rate_pps, duration_s, crc):
    assert emissions_crc(dst, rate_pps, duration_s) == crc


def _old_feed_mapping(generator, rate_pps, duration_s):
    """``(when, source port, payload bytes)`` as the feed drew them when
    it mapped each 5-tuple to its port in one dict, slots numbered in
    first-emission order."""
    ports = {}
    for when, flow, size in generator.timed_draws(rate_pps, duration_s):
        sport = ports.setdefault(flow.flow_id, 20000 + len(ports) % 1000)
        yield when, sport, payload_len(size)


@pytest.mark.parametrize("seed", [5, 6, 9])
def test_a_feed_emits_what_the_five_tuple_mapping_did(seed):
    """Each flow's port slot rides on its live ``Flow``; the emissions
    (time, source port, size) are bit-identical to the old mapping's."""
    def feed_of(seed):
        return ReplayFeed(CampusTraceGenerator(seed=seed, reuse_packets=True),
                          src_ip=ip(10, 0, 1, 1), dst_ip=ip(10, 0, 2, 1),
                          rate_pps=200_000.0, duration_s=0.1)

    got = [(when, packet.find("udp").get("src_port"), packet.payload_len)
           for when, packet in feed_of(seed).emissions()]
    want = list(_old_feed_mapping(CampusTraceGenerator(seed=seed),
                                  200_000.0, 0.1))
    assert len(got) > 15_000 and got == want


def reachable_containers(root, name):
    """``(path, len)`` of every dict, list, set and tuple reachable from
    ``root``: through container items (and keys) and through each
    instance's ``__dict__`` and ``__slots__``, however deep; each object
    visited once.  Classes, modules and functions are not entered."""
    seen, found, stack = set(), [], [(name, root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType,
                                               FunctionType, MethodType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            found.append((path, len(obj)))
            for key, value in obj.items():
                stack += [(f"{path} key", key), (f"{path}[{key!r}]", value)]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            found.append((path, len(obj)))
            stack += [(f"{path}[{i}]", item) for i, item in enumerate(obj)]
        else:
            state = dict(getattr(obj, "__dict__", {}))
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        state[slot] = getattr(obj, slot)
            stack += [(f"{path}.{attr}", value)
                      for attr, value in state.items()]
    return found


def test_a_long_feed_holds_only_its_live_flows(monkeypatch):
    """Far into a replay, no ended ``Flow`` is alive and the feed holds
    nothing per flow, however deep: the largest container reachable from
    it is the templates, at most one per (port slot, size)."""
    generator, feed = replay_feed("h2", 400_000.0, 0.2)
    made = []
    new_flow = generator._new_flow

    def tracked():
        flow = new_flow()
        made.append(weakref.ref(flow))
        return flow

    monkeypatch.setattr(generator, "_new_flow", tracked)
    for _ in islice(feed.emissions(), 60_000):
        pass
    alive = [flow for flow in (ref() for ref in made) if flow is not None]
    assert len(made) > 10_000
    assert len(alive) <= CONCURRENT_FLOWS
    assert all(flow.remaining > 0 for flow in alive)
    path, size = max(reachable_containers(feed, "feed"),
                     key=lambda held: held[1])
    assert size <= 1000 * len(PACKET_SIZES), f"{path} holds {size} items"


def test_feed_stats_count_what_was_offered():
    generator, feed = replay_feed("h3", 100_000.0, 0.06)
    emitted = list(feed.emissions())
    stats = generator.stats
    assert len(emitted) == feed.offered == stats.packets == 5991
    assert feed.offered_bytes == sum(p.length for _, p in emitted)
    assert stats.tcp_packets + stats.udp_packets == stats.packets
    # The generator counted the campus packets the draws stand for.
    twin = CampusTraceGenerator(seed=5)
    assert stats.bytes == sum(
        p.length for _, p in twin.timed_packets(100_000.0, 0.06))
    assert stats == twin.stats


def test_replay_builds_only_the_packets_it_sends(monkeypatch):
    built = []
    init = Packet.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting)
    _, feed = replay_feed("h3", 100_000.0, 0.06)
    emitted = list(feed.emissions())
    assert len(built) == len(feed._templates) == 2003
    assert {id(p) for _, p in emitted} \
        == {id(p) for p, _ in feed._templates.values()}


def test_endless_replay_keeps_no_packet_but_its_templates():
    """An hour-long stream, 50K emissions in: every ``Packet`` born
    since is one of the feed's (bounded) templates."""
    def live_packets():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, Packet)]

    before = live_packets()     # held, so no id below can be a reuse
    old = {id(p) for p in before}
    generator, feed = replay_feed("h2", 400_000.0, 3600.0)
    stream = feed.emissions()
    assert sum(1 for _ in islice(stream, 50_000)) == 50_000
    templates = {id(p) for p, _ in feed._templates.values()}
    assert len(templates) <= 3000
    born = {id(p) for p in live_packets()} - old
    assert born == templates
    assert generator.stats.packets == feed.offered == 50_000


# ---------------------------------------------------------------------------
# Traffic processes
# ---------------------------------------------------------------------------

def echo_network():
    topo = single_switch(2)
    bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1")
    bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    bmv2.insert_entry("fwd_table", [2], "fwd_set_egress", [1])
    return Network(topo, {"s1": bmv2})


def test_pinger_measures_rtts():
    network = echo_network()
    EchoResponder(network, "h2")
    pinger = Pinger(network, "h1", "h2", interval_s=0.001)
    count = pinger.schedule(0.01)
    network.run()
    assert count == 10
    assert len(pinger.samples) == 10
    assert all(s.rtt_s > 0 for s in pinger.samples)
    series = pinger.series()
    assert series == sorted(series)


def test_echo_responder_ignores_non_echo_traffic():
    network = echo_network()
    responder = EchoResponder(network, "h2")
    packet = make_udp(network.topology.hosts["h1"].ipv4,
                      network.topology.hosts["h2"].ipv4, 5, 9999)
    network.host("h1").send(packet)
    network.run()
    assert responder.replies == 0


def test_load_generator_is_bidirectional():
    network = echo_network()
    load = UdpLoadGenerator(network, "h1", "h2", rate_bps=10e6,
                            packet_len=1000, jitter=False)
    count = load.schedule(0.01)
    network.run()
    assert count == load.packets_sent
    assert network.host("h1").rx_count > 0
    assert network.host("h2").rx_count > 0


def test_load_rate_approximates_target():
    network = echo_network()
    load = UdpLoadGenerator(network, "h1", "h2", rate_bps=8e6,
                            packet_len=1000, jitter=False)
    load.schedule(0.1)
    # 8 Mb/s at 1000B datagrams = 1000 pps per direction x 0.1 s.
    per_direction = load.packets_sent / 2
    assert 90 <= per_direction <= 110


def _load_transmits(network):
    """Record every host transmit on ``network`` (event mode) as
    ``(time, sending host, IPv4 src, IPv4 dst, UDP sport, UDP dport,
    length)``."""
    sent = []
    transmit = network.transmit_from_host

    def recorded(host, packet):
        ipv4, udp = packet.find("ipv4"), packet.find("udp")
        sent.append((network.sim.now, host, ipv4.get("src_addr"),
                     ipv4.get("dst_addr"), udp.get("src_port"),
                     udp.get("dst_port"), packet.length))
        transmit(host, packet)

    network.transmit_from_host = recorded
    return sent


def _drawn_load(network, a, b, rate_bps, packet_len, seed, duration_s,
                start, burst_size=8):
    """The jittered load's transmits, drawn in the generator's order
    from ``random.Random(seed)`` — a->b, then b->a: per direction the
    source port, then ``(burst, gap)`` pairs — each datagram sent at
    ``start`` plus its drawn offset."""
    rng = random.Random(seed)
    hosts = network.topology.hosts
    gap = packet_len * 8 / rate_bps
    sent = []
    for src, dst in ((a, b), (b, a)):
        sport = rng.randrange(30000, 60000)
        length = make_udp(hosts[src].ipv4, hosts[dst].ipv4, sport,
                          LOAD_PORT, payload_len=packet_len).length
        offset = 0.0
        while True:
            burst = rng.randint(1, burst_size)
            offset += rng.expovariate(1.0 / (gap * burst))
            if offset > duration_s:
                break
            sent += [(start + offset, src, hosts[src].ipv4,
                      hosts[dst].ipv4, sport, LOAD_PORT, length)] * burst
    return sent


@pytest.mark.parametrize("rate_bps, packet_len",
                         [(-5e6, 1400), (0.0, 1400), (float("inf"), 1400),
                          (40e6, 0)])
def test_load_generator_refuses_a_rate_or_size_that_never_ends(rate_bps,
                                                               packet_len):
    """A non-positive rate or size, or an infinite rate, draws gaps of
    zero or less, which would keep ``schedule`` below its duration for
    ever."""
    network, _ = build_fabric(None, Fig12Config())
    with pytest.raises(ValueError, match="must be finite and > 0"):
        UdpLoadGenerator(network, "h1", "h3", rate_bps,
                         packet_len=packet_len)


@pytest.mark.parametrize("start", [0.0, 0.01])
def test_load_generator_sends_each_direction_its_drawn_datagrams(start):
    """A jittered, bursty load on the Figure 12 fabric sends, per
    direction, exactly the datagrams its draws name: the sending host's
    addresses and port, at ``sim.now`` when scheduled plus the drawn
    offset."""
    # Event mode: the tap wraps ``transmit_from_host``, which a batched
    # drain's fast-forward never calls.
    config = Fig12Config(duration_s=0.02, batched=False)
    network, _ = build_fabric(None, config)
    network.run(until=start)
    sent = _load_transmits(network)
    load = UdpLoadGenerator(network, "h1", "h3", config.load_bps_per_pair,
                            packet_len=config.load_packet_len, seed=5)
    count = load.schedule(config.duration_s)
    network.run()
    want = _drawn_load(network, "h1", "h3", config.load_bps_per_pair,
                       config.load_packet_len, 5, config.duration_s, start)
    assert count == load.packets_sent == len(want) == len(sent)
    for host in ("h1", "h3"):
        mine = [s for s in sent if s[1] == host]
        assert mine == [w for w in want if w[1] == host]
        assert len({s[0] for s in mine}) < len(mine)   # bursts
    assert min(s[0] for s in sent) > start
