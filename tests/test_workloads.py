"""Workload tests: anonymizer (prefix preservation, one-wayness), campus
trace generator (determinism, heavy tail), traffic processes."""

import gc
import hashlib
import zlib
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.throughput import ReplayFeed
from repro.net.packet import Packet, ip, make_udp
from repro.net.simulator import Network
from repro.net.topology import leaf_spine, single_switch
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding
from repro.workloads import (CAMPUS_SUBNET_A, CAMPUS_SUBNET_B,
                             CampusTraceGenerator, EchoResponder, Pinger,
                             PrefixPreservingAnonymizer, UdpLoadGenerator)


# ---------------------------------------------------------------------------
# Anonymizer
# ---------------------------------------------------------------------------

def common_prefix_len(a, b):
    for i in range(32, -1, -1):
        if i == 0 or (a >> (32 - i)) == (b >> (32 - i)):
            return i
    return 0


@given(a=st.integers(min_value=0, max_value=2**32 - 1),
       b=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_prefix_preservation(a, b):
    anon = PrefixPreservingAnonymizer()
    pa, pb = anon.anonymize_ipv4(a), anon.anonymize_ipv4(b)
    assert common_prefix_len(pa, pb) == common_prefix_len(a, b)


def test_anonymization_is_deterministic_per_salt():
    a1 = PrefixPreservingAnonymizer(salt=b"one")
    a2 = PrefixPreservingAnonymizer(salt=b"one")
    a3 = PrefixPreservingAnonymizer(salt=b"two")
    addr = ip(128, 112, 5, 9)
    assert a1.anonymize_ipv4(addr) == a2.anonymize_ipv4(addr)
    assert a1.anonymize_ipv4(addr) != a3.anonymize_ipv4(addr)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_anonymization_is_injective_in_practice(addr):
    anon = PrefixPreservingAnonymizer()
    other = addr ^ 1  # differs in the last bit
    assert anon.anonymize_ipv4(addr) != anon.anonymize_ipv4(other)


def test_mac_anonymization_is_local_unicast():
    anon = PrefixPreservingAnonymizer()
    mac = anon.anonymize_mac(0x001122334455)
    assert mac & 0x020000000000           # locally administered
    assert not (mac & 0x010000000000)     # unicast


def test_packet_anonymization_changes_addresses_keeps_sizes():
    anon = PrefixPreservingAnonymizer()
    packet = make_udp(ip(128, 112, 1, 1), ip(93, 184, 0, 5), 1234, 80,
                      payload_len=100)
    packet.meta["flow_id"] = ("sensitive",)
    out = anon.anonymize_packet(packet)
    assert out.find("ipv4").src_addr != packet.find("ipv4").src_addr
    assert out.length == packet.length
    assert "flow_id" not in out.meta
    # Original untouched.
    assert packet.find("ipv4").src_addr == ip(128, 112, 1, 1)


def reference_anonymize(salt, addr):
    """The definition, straight-line: bit i of the output is bit i of
    the address XOR a salted hash of the address's i-bit prefix."""
    out = 0
    for i in range(32):
        prefix = addr >> (32 - i) if i else 0
        flip = hashlib.sha256(salt + i.to_bytes(1, "big")
                              + prefix.to_bytes(5, "big")).digest()[0] & 1
        out = (out << 1) | (((addr >> (31 - i)) & 1) ^ flip)
    return out


def count_prf(anon):
    """Wrap ``anon._prf_bit``; the returned list grows by one per call."""
    calls, prf = [], anon._prf_bit

    def counting(prefix_bits, length):
        calls.append((length, prefix_bits))
        return prf(prefix_bits, length)

    anon._prf_bit = counting
    return calls


_ADDRESSES = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.builds(int.__or__,
              st.sampled_from([CAMPUS_SUBNET_A, CAMPUS_SUBNET_B,
                               ip(93, 184, 0, 0)]),
              st.integers(min_value=0, max_value=2**16 - 1)))


@given(st.lists(_ADDRESSES, min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_memoised_anonymizer_is_its_definition_at_one_prf_per_node(addrs):
    anon = PrefixPreservingAnonymizer(salt=b"one")
    calls = count_prf(anon)
    seen, images = [], {}
    for addr in addrs:
        before = len(calls)
        images[addr] = anon.anonymize_ipv4(addr)
        assert images[addr] == reference_anonymize(b"one", addr)
        # Only the nodes below the longest known prefix are new; a
        # repeat (k = 32) evaluates nothing.
        known = max((anon.shares_prefix(addr, s) for s in seen), default=0)
        assert len(calls) - before <= 32 - known
        seen.append(addr)
    assert len(calls) <= len(anon._cache) - 1     # one per new node
    for p, q in combinations(images, 2):
        assert (anon.shares_prefix(images[p], images[q])
                == anon.shares_prefix(p, q))
    other = PrefixPreservingAnonymizer(salt=b"two")
    assert [other.anonymize_ipv4(a) for a in addrs] \
        == [reference_anonymize(b"two", a) for a in addrs]
    assert anon._cache != other._cache


@pytest.mark.parametrize("addr", [-1, 1 << 32, (1 << 32) | ip(10, 0, 0, 1),
                                  1 << 40])
def test_anonymizer_refuses_what_it_cannot_key(addr):
    """An out-of-range address would alias another trie node's key."""
    anon = PrefixPreservingAnonymizer()
    anon.anonymize_ipv4(ip(10, 0, 0, 1))
    before = dict(anon._cache)
    with pytest.raises(ValueError):
        anon.anonymize_ipv4(addr)
    assert anon._cache == before


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
        src = packet.find("ipv4").src_addr
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
        [(when, p.meta["flow_id"], p.headers[-1].src_port, p.length)
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
