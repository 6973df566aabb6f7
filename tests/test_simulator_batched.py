"""Batched-mode network tests: batched-vs-event exactness (delivery
counts, timestamps, the final clock and the hop records must be
identical), the unbounded FIFO's closed-form timing under a long
backlog, and the accounting regressions fixed alongside the batch hot
loop (``tx_count``, ``last_rx_time``, wire-roundtrip fidelity, lazy
trace generation).  The scheduler's own tests are in
``test_simulator.py``."""

import collections
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.fig12 import Fig12Config, run_rtt_experiment
from repro.experiments.throughput import run_replay
from repro.net.packet import ip, make_udp
from repro.net.simulator import Network
from repro.net.topology import Endpoint, Link, Topology, linear, single_switch
from repro.p4 import ENGINES
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding
from repro.workloads.campus import CampusTraceGenerator


# ---------------------------------------------------------------------------
# Batched vs event exactness
# ---------------------------------------------------------------------------

def _make_network(batched, hosts=2, **kwargs):
    topo = single_switch(hosts)
    bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1")
    entries = []
    for port in range(1, hosts + 1):
        out = 2 if port == 1 else 1
        if hosts > 2:
            out = hosts if port != hosts else 1
        entries.append(bmv2.insert_entry("fwd_table", [port],
                                         "fwd_set_egress", [out]))
    network = Network(topo, {"s1": bmv2}, batched=batched, **kwargs)
    return topo, network, bmv2, entries


def _snapshot(network):
    # packet_ids come from a process-global counter, so two networks
    # never see the same absolute ids; remap them by first appearance
    # so the comparison checks identity *structure* (which deliveries
    # share an emission) rather than counter offsets.
    id_map = {}

    def rel(packet_id):
        return id_map.setdefault(packet_id, len(id_map))

    return {
        "delivered": network.packets_delivered,
        "lost": network.packets_lost,
        # By (node, reason), where the run counted them (_count_drops).
        "drops": getattr(network, "drops", None),
        "now": network.sim.now,
        "hosts": {
            name: {
                "tx": host.tx_count,
                "rx": host.rx_count,
                "rx_bytes": host.rx_bytes,
                "last_rx": host.last_rx_time,
                "received": [(t, rel(p.packet_id), p.length)
                             for t, p in host.received],
            }
            for name, host in network.hosts.items()
        },
        # A port clock of 0.0 reads the same as a port never claimed.
        "switches": {
            name: (device.bytes_forwarded,
                   {port: busy for port, busy
                    in sorted(device.port_busy_until.items()) if busy})
            for name, device in network.switches.items()
        },
    }


def _count_drops(network):
    """Count network-layer drops by ``(node, reason)`` on
    ``network.drops`` — ``_drop`` is the one place both modes account
    them — for :func:`_snapshot` to compare."""
    network.drops = collections.Counter()
    drop = network._drop

    def counted(node, packet, reason, port=None):
        network.drops[node, reason] += 1
        drop(node, packet, reason, port)

    network._drop = counted


def _make_chain(batched, hosts=4, **kwargs):
    """Two switches: h1..hN on s1, the sink h(N+1) behind s2, so a
    transit record is longer than the one-switch shape.  Returns s1's
    pipeline and entries, as :func:`_make_network` does for its s1."""
    topo = linear(2, hosts_per_end=hosts)
    s1 = Bmv2Switch(l2_port_forwarding(), name="s1")
    s2 = Bmv2Switch(l2_port_forwarding(), name="s2")
    entries = [s1.insert_entry("fwd_table", [port], "fwd_set_egress", [10])
               for port in range(1, hosts + 1)]
    s2.insert_entry("fwd_table", [11], "fwd_set_egress", [1])
    network = Network(topo, {"s1": s1, "s2": s2}, batched=batched, **kwargs)
    return topo, network, s1, entries


def _hops(network):
    """The network's hop records by ``(t, switch, ingress port)``, as
    values, packet ids remapped by first appearance (as in
    :func:`_snapshot`) — from a ring that has not wrapped, since the two
    modes append in different orders."""
    assert not network.hops.dropped
    id_map = {}

    def rel(packet):
        return (id_map.setdefault(packet.packet_id, len(id_map)),
                [(h.name, h.valid, h.values) for h in packet.headers],
                packet.payload_len)

    return [(hop.t, hop.switch, hop.ingress_port, rel(hop.packet),
             [(port, rel(out)) for port, out in hop.outputs], hop.digests,
             hop.drop_reason)
            for hop in sorted(network.hops, key=lambda hop: (
                hop.t, hop.switch, hop.ingress_port))]


def _run_both(attach, hosts=2, until=None, make=_make_network, **kwargs):
    """Run the same emission schedule in event and batched mode and
    demand identical observable outcomes (including timestamps and the
    final simulator clock) and identical hop records; then run batched
    mode again without a recorder and demand that recording changed
    nothing."""
    snaps, hops = [], []
    for batched, record in ((False, True), (True, True), (True, False)):
        topo, network, bmv2, entries = make(batched, hosts, **kwargs)
        if record:
            network.record_hops()
        attach(topo, network, bmv2, entries)
        if until is not None:
            network.run(until=until)
        network.run()
        snaps.append(_snapshot(network))
        if record:
            hops.append(_hops(network))
    assert snaps[0] == snaps[1] == snaps[2]
    assert hops[0] == hops[1]
    return snaps[1]


def _template_stream(topo, count, gap_s, payload_len=100, start=0.0):
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                      1111, 2222, payload_len=payload_len)
    return [(start + i * gap_s, packet) for i in range(count)]


def test_batched_replay_matches_event_mode_exactly():
    snap = _run_both(lambda topo, network, bmv2, entries:
                     network.attach_source(
                         "h1", iter(_template_stream(topo, 200, 2e-6))))
    assert snap["hosts"]["h2"]["rx"] == 200
    assert snap["delivered"] == 200


def test_batched_distinct_packets_match_event_mode():
    def attach(topo, network, bmv2, entries):
        emissions = [
            (i * 3e-6,
             make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                      1000 + (i % 7), 2222, payload_len=64 + (i % 3) * 400))
            for i in range(120)
        ]
        network.attach_source("h1", iter(emissions))

    snap = _run_both(attach)
    assert snap["hosts"]["h2"]["rx"] == 120


def test_batched_contention_matches_event_mode():
    """Two sources racing for one output port: FIFO queueing must land
    identically in both modes."""
    def attach(topo, network, bmv2, entries):
        big_1 = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h3"].ipv4,
                         1, 2, payload_len=1400)
        big_2 = make_udp(topo.hosts["h2"].ipv4, topo.hosts["h3"].ipv4,
                         3, 4, payload_len=1400)
        network.attach_source(
            "h1", iter([(i * 1e-6, big_1) for i in range(150)]))
        network.attach_source(
            "h2", iter([(0.5e-6 + i * 1e-6, big_2) for i in range(150)]))

    snap = _run_both(attach, hosts=3)
    assert snap["lost"] == 0
    assert snap["hosts"]["h3"]["rx"] == 300


def test_batched_rx_callbacks_match_event_mode():
    """A consuming rx callback disables inline fused delivery; the
    fallback must stay exact."""
    def attach(topo, network, bmv2, entries):
        network.host("h2").add_rx_callback(lambda t, p: None)
        network.attach_source(
            "h1", iter(_template_stream(topo, 100, 2e-6)))

    snap = _run_both(attach)
    assert snap["hosts"]["h2"]["rx"] == 100
    assert snap["hosts"]["h2"]["received"] == []  # consumed


def test_batched_mid_run_config_change_matches_event_mode():
    """A control-plane change mid-replay invalidates cached transit
    records; deliveries before and after must match event mode."""
    def attach(topo, network, bmv2, entries):
        def reroute():
            bmv2.delete_entry("fwd_table", entries[0])
            bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [3])

        network.sim.schedule_at(1.5e-4, reroute)
        network.attach_source(
            "h1", iter(_template_stream(topo, 100, 3e-6)))

    snap = _run_both(attach, hosts=3)
    # Before the reroute packets reach h3 (3-host wiring sends 1->3);
    # the reroute is a no-op route-wise but must still bump the cache
    # generation without perturbing timing.
    assert snap["hosts"]["h3"]["rx"] == 100


def test_reroute_reaches_packets_parked_in_front_of_the_pipeline():
    """A replay parked at forward time when the tables change has not
    been through that switch yet: it must re-run the pipeline on the
    new entries (and land where event mode sends it), not finish along
    the recorded route."""
    def attach(topo, network, bmv2, entries):
        def reroute():
            bmv2.delete_entry("fwd_table", entries[0])
            bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])

        network.sim.schedule_at(10.5e-6, reroute)
        network.attach_source(
            "h1", iter(_template_stream(topo, 30, 1e-6)))

    snap = _run_both(attach, hosts=3)
    assert snap["hosts"]["h3"]["rx"] + snap["hosts"]["h2"]["rx"] == 30
    assert snap["hosts"]["h2"]["rx"] > 15


def test_batched_run_until_flushes_and_resumes_exactly():
    snap = _run_both(
        lambda topo, network, bmv2, entries: network.attach_source(
            "h1", iter(_template_stream(topo, 100, 2e-6))),
        until=1e-4)
    assert snap["hosts"]["h2"]["rx"] == 100


def test_same_template_from_two_hosts_replays_each_hosts_path():
    """A memoized transit record is keyed to the emitting host: the
    same template object sent from h1 and h2 must replay h1's and h2's
    distinct paths, not whichever was recorded first."""
    def attach(topo, network, bmv2, entries):
        shared = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h3"].ipv4,
                          1, 2, payload_len=200)
        network.attach_source(
            "h1", iter([(i * 4e-6, shared) for i in range(50)]))
        network.attach_source(
            "h2", iter([(2e-6 + i * 4e-6, shared) for i in range(50)]))

    snap = _run_both(attach, hosts=3)
    assert snap["hosts"]["h3"]["rx"] == 100
    assert snap["hosts"]["h1"]["tx"] == 50
    assert snap["hosts"]["h2"]["tx"] == 50


def _cap_scheduler(network, limit):
    """Fail (rather than hang) if the run schedules more than ``limit``
    events — a livelocked scheduler re-parks without bound."""
    schedule_at = network.sim.schedule_at
    calls = [0]

    def capped(time, callback):
        calls[0] += 1
        assert calls[0] <= limit, "scheduler livelock: event cap exceeded"
        schedule_at(time, callback)

    network.sim.schedule_at = capped


def test_same_instant_sources_share_the_instant_without_livelock():
    """Two pumps popped at the same instant on a stateless fabric: the
    one popped first owns the instant and must emit rather than re-park
    behind the other (which would then do the same, forever)."""
    def attach(topo, network, bmv2, entries):
        _cap_scheduler(network, 5_000)
        for name in ("h1", "h2"):
            packet = make_udp(topo.hosts[name].ipv4, topo.hosts["h3"].ipv4,
                              1, 2, payload_len=200)
            network.attach_source(
                name, iter([(i * 4e-6, packet) for i in range(50)]))

    snap = _run_both(attach, hosts=3)
    assert snap["delivered"] == 100
    assert snap["hosts"]["h3"]["rx"] == 100
    assert snap["now"] == pytest.approx(0.00019906, abs=1e-9)


def test_host_send_of_a_memoized_template_replays_its_record():
    """``Host.send`` outside any source: the first send walks and
    memoizes, the repeats replay the record — with an rx callback on
    the sink, so every delivery goes through the scheduler."""
    snaps = []
    for batched in (False, True):
        topo, network, bmv2, _ = _make_network(batched)
        seen = []
        network.host("h2").add_rx_callback(
            lambda t, p: seen.append((t, p.length)))
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                          1111, 2222, payload_len=100)
        for delay in (0.0, 2e-5, 5e-5):
            network.host("h1").send(packet, delay)
        calls = []
        process = bmv2.process
        bmv2.process = lambda p, port: calls.append(port) or process(p, port)
        network.run()
        assert len(calls) == (1 if batched else 3)
        snaps.append((_snapshot(network), seen))
    assert snaps[0] == snaps[1]
    assert len(snaps[1][1]) == 3


def test_rx_callback_that_sends_and_reroutes_is_seen_by_the_drain():
    """Whatever an rx callback does mid-drain — inject traffic (a new
    scheduler event the drain must yield to), change a table (a new
    generation: later emissions re-walk, a parked delivery still
    arrives) — lands as in event mode.  Emissions are spaced wider
    than the path takes, so one drain runs them all inline; the 10th
    and 11th are 1 us apart, so the 11th is parked in front of its
    delivery when the 10th's callback moves the route."""
    times = ([i * 4e-6 for i in range(9)] + [36e-6, 37e-6]
             + [41e-6 + i * 4e-6 for i in range(5)])

    def attach(topo, network, bmv2, entries):
        sink = network.host("h3")
        burst = make_udp(topo.hosts["h2"].ipv4, topo.hosts["h3"].ipv4,
                         5, 6, payload_len=1400)

        def on_rx(t, p):
            sink.received.append((t, p))
            if len(sink.received) == 5:
                for _ in range(3):
                    network.host("h2").send(burst)
            if len(sink.received) == 13:     # 10 from h1 + the burst
                bmv2.delete_entry("fwd_table", entries[0])
                bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])

        sink.add_rx_callback(on_rx)
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h3"].ipv4,
                          1, 2, payload_len=200)
        network.attach_source("h1", iter([(t, packet) for t in times]))

    snap = _run_both(attach, hosts=3)
    assert snap["hosts"]["h3"]["rx"] == 11 + 3
    assert snap["hosts"]["h2"]["rx"] == 5


def test_template_memo_does_not_leak_across_networks():
    """A template's transit memo is validated by generation: the same
    template objects fed to a second fresh network must be routed by
    that network, not replayed into the first network's hosts."""
    topo = single_switch(3)
    template = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                        1111, 2222, payload_len=100)
    emissions = [(i * 2e-6, template) for i in range(50)]
    networks = {}
    for label, out_port in (("a", 2), ("b", 3)):
        bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1")
        bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [out_port])
        network = Network(single_switch(3), {"s1": bmv2}, batched=True)
        network.attach_source("h1", iter(emissions))
        network.run()
        networks[label] = network
    a, b = networks["a"], networks["b"]
    assert a.hosts["h2"].rx_count == 50
    assert a.packets_delivered == 50
    assert b.hosts["h3"].rx_count == 50
    assert b.hosts["h2"].rx_count == 0
    assert b.packets_delivered == 50


def test_fig12_rtt_series_bit_identical_under_batched_mode():
    """The paper experiment itself: RTT series with a checker deployed
    must be bit-identical between the two network modes."""
    runs = []
    for batched in (False, True):
        config = Fig12Config(duration_s=0.05, batched=batched)
        runs.append(run_rtt_experiment(["loops"], "arm", config=config))
    assert runs[0].series == runs[1].series
    assert runs[0].rtts_ms == runs[1].rtts_ms
    assert runs[0].packets_lost == runs[1].packets_lost


@pytest.mark.parametrize("engine", ENGINES)
def test_campus_replay_matches_event_mode(engine):
    """The throughput experiment itself: a campus trace replayed h1->h3
    across the fig12 fabric delivers the same packets, bytes and final
    arrival in both network modes, under either engine."""
    event, batched = (
        run_replay(None, "arm", rate_pps=50_000, duration_s=0.02,
                   engine=engine, batched=batched)
        for batched in (False, True))
    assert event.offered_packets > 0
    # Past the trace's end, duration_s is the sink's last arrival.
    assert event.duration_s > 0.02
    assert event == batched


# ---------------------------------------------------------------------------
# Accounting regressions
# ---------------------------------------------------------------------------

def test_tx_count_counts_wire_transmissions_not_sends():
    """``Host.send`` with a delay queues the packet; tx_count moves
    only when serialization onto the wire actually starts."""
    topo, network, _, _ = _make_network(batched=False)
    h1 = network.host("h1")
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2)
    h1.send(packet, delay=0.5)
    assert h1.tx_count == 0
    network.run(until=0.1)
    assert h1.tx_count == 0
    network.run()
    assert h1.tx_count == 1


def test_last_rx_time_survives_consuming_callbacks():
    topo, network, _, _ = _make_network(batched=False)
    seen = []
    network.host("h2").add_rx_callback(lambda t, p: seen.append(t))
    network.host("h1").send(
        make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2))
    network.run()
    h2 = network.host("h2")
    assert h2.received == []
    assert h2.last_rx_time == seen[-1]


@pytest.mark.parametrize("batched", [False, True])
def test_a_hop_record_is_what_the_pipeline_was_handed_and_returned(batched):
    """No recorder by default; once attached, one record per pipeline
    run: the time it ran, the packet handed in (by reference), what came
    out, and a drop's reason."""
    topo, network, bmv2, entries = _make_network(batched)
    assert network.hops is None
    hops = network.record_hops()
    bmv2.delete_entry("fwd_table", entries[1])      # h2's port: a miss
    h1, h2 = topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4
    sent = [make_udp(h1, h2, 1, 2), make_udp(h2, h1, 3, 4),
            make_udp(h2, h1, 3, 4, ttl=1)]
    for packet, host in zip(sent, ("h1", "h2", "h2")):
        network.host(host).send(packet)
        network.run()
    assert [hop.packet for hop in hops] == sent
    assert [(hop.switch, hop.ingress_port, hop.digests, hop.drop_reason)
            for hop in hops] == [("s1", 1, 0, None), ("s1", 2, 0, "pipeline"),
                                 ("s1", 2, 0, "ttl")]
    (port, out), = hops[0].outputs
    assert port == 2 and network.host("h2").received[-1][1] is out
    assert hops[1].outputs == hops[2].outputs == []
    assert 0 < hops[0].t < hops[1].t < hops[2].t == network.sim.now


def test_wire_roundtrip_preserves_invalid_header_bits():
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 7, 8,
                      payload_len=33)
    victim = packet.headers[1]
    victim.valid = False
    before = [(h.name, h.valid, h.to_bits()) for h in packet.headers]
    out = Network._wire_roundtrip(packet)
    after = [(h.name, h.valid, h.to_bits()) for h in out.headers]
    assert after == before
    assert out.packet_id == packet.packet_id
    assert out.payload_len == packet.payload_len


def test_campus_trace_generates_lazily_at_paper_rate():
    """An hour of 400K pps trace must hand out its first packets
    instantly — nothing is pre-sized or materialized."""
    generator = CampusTraceGenerator(seed=1, reuse_packets=True)
    stream = generator.timed_packets(rate_pps=400_000, duration_s=3600.0)
    first = list(islice(stream, 100))
    assert len(first) == 100
    assert first[0][0] < first[99][0]


def test_campus_trace_covers_full_duration():
    """Unlucky inter-arrival tails may not end the trace early: the
    stream covers the whole window and stays inside it."""
    generator = CampusTraceGenerator(seed=3)
    events = list(generator.timed_packets(rate_pps=2000, duration_s=0.5))
    assert all(t <= 0.5 for t, _ in events)
    assert events[-1][0] > 0.45
    assert len(events) == pytest.approx(1000, rel=0.25)


def test_an_unbounded_fifo_spaces_a_backlog_by_its_tx_time():
    """One source offering 400 full-size packets at 10x the link rate:
    the NIC FIFO holds the whole backlog, so in both modes every packet
    arrives and delivery k lands exactly k serialization times after
    delivery 0."""
    tx_time = []

    def attach(topo, network, bmv2, entries):
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                          1, 2, payload_len=1400)
        tx_time[:] = [packet.length * 8
                      / topo.link_at("s1", 1).bandwidth_bps]
        network.attach_source(
            "h1", iter([(i * tx_time[0] / 10, packet) for i in range(400)]))

    snap = _run_both(attach)
    assert snap["delivered"] == 400 and snap["lost"] == 0
    times = [t for t, _, _ in snap["hosts"]["h2"]["received"]]
    assert times == pytest.approx(
        [times[0] + k * tx_time[0] for k in range(400)], rel=1e-9)


# ---------------------------------------------------------------------------
# The wire table: the eager walk reads a precomputed row per leg
# ---------------------------------------------------------------------------

def _make_three_hops(batched, **kwargs):
    """h1 - s1 - s2 - s3 - h2, forwarded both ways; every switch with
    its own stage count."""
    topo = linear(3)
    programs = {}
    for name, (near, far) in {"s1": (1, 10), "s2": (11, 10),
                              "s3": (11, 1)}.items():
        bmv2 = programs[name] = Bmv2Switch(l2_port_forwarding(), name=name)
        bmv2.insert_entry("fwd_table", [near], "fwd_set_egress", [far])
        bmv2.insert_entry("fwd_table", [far], "fwd_set_egress", [near])
    network = Network(topo, programs, batched=batched,
                      stage_counts={"s1": 3, "s2": 12, "s3": 7}, **kwargs)
    return topo, network


def test_the_walk_reads_the_wire_table_and_nothing_else(monkeypatch):
    """Once a batched network is built, a stateful three-hop replay
    asks the topology nothing: no ``Endpoint`` is made, hashed against
    the port map or compared, and every packet still lands when event
    mode (the unpatched twin, run first) says."""
    def attach(topo, network):
        ping = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2,
                        payload_len=900)
        pong = make_udp(topo.hosts["h2"].ipv4, topo.hosts["h1"].ipv4, 2, 1)
        network.attach_source("h1", iter([(i * 1e-6, ping)
                                          for i in range(40)]))
        network.attach_source("h2", iter([(i * 3e-6, pong)
                                          for i in range(15)]))

    topo, reference = _make_three_hops(False, serialize_on_wire=True)
    attach(topo, reference)
    reference.run()
    want = _snapshot(reference)
    assert (want["hosts"]["h2"]["rx"], want["hosts"]["h1"]["rx"]) == (40, 15)

    topo, network = _make_three_hops(True, serialize_on_wire=True)

    def asked(*args, **kwargs):
        raise AssertionError("the batched walk asked the topology")

    for owner, name in ((Topology, "link_at"), (Topology, "host_attachment"),
                        (Topology, "peer"), (Link, "other"),
                        (Endpoint, "__init__")):
        monkeypatch.setattr(owner, name, asked)
    attach(topo, network)
    network.run()
    assert _snapshot(network) == want


def test_a_link_added_after_construction_carries_traffic_in_both_modes():
    """``Topology`` only grows: a link wired after the network was
    built (and had derived its wire table for earlier traffic) carries
    the next packets in batched mode exactly as in event mode — here
    to a host that sits on a port other than 0 and sends back."""
    def make(batched, hosts, **kwargs):
        topo = single_switch(hosts)
        topo.add_host("late", ipv4=ip(10, 0, 1, 99))
        bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1")
        bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
        bmv2.insert_entry("fwd_table", [2], "fwd_set_egress", [3])
        return topo, Network(topo, {"s1": bmv2}, batched=batched,
                             **kwargs), bmv2, []

    def attach(topo, network, bmv2, entries):
        _count_drops(network)
        early = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2)
        there = make_udp(topo.hosts["h2"].ipv4, ip(10, 0, 1, 99), 3, 4)
        back = make_udp(ip(10, 0, 1, 99), topo.hosts["h1"].ipv4, 4, 3,
                        payload_len=300)

        def wire_late():
            topo.add_link("s1", 3, "late", 5)
            bmv2.insert_entry("fwd_table", [3], "fwd_set_egress", [1])

        network.attach_source("h1", iter([(i * 2e-6, early)
                                          for i in range(10)]))
        # Port 3 is unwired (no_route) until 9 us into the run.
        network.attach_source("h2", iter([(i * 2e-6, there)
                                          for i in range(10)]))
        network.sim.schedule_at(9e-6, wire_late)
        network.attach_source("late", iter([(12e-6 + i * 2e-6, back)
                                            for i in range(5)]))

    for stateful in (False, True):
        snap = _run_both(attach, make=make, serialize_on_wire=stateful)
        assert snap["drops"] == {("s1", "no_route"): 4}
        assert snap["hosts"]["late"]["rx"] == 6
        assert snap["hosts"]["late"]["tx"] == 5
        assert snap["hosts"]["h1"]["rx"] == 5
        assert snap["hosts"]["h2"]["rx"] == 10


# ---------------------------------------------------------------------------
# Tie-heavy schedules: the one equivalence property
# ---------------------------------------------------------------------------

_GRID_S = 2e-6

_source_plans = st.lists(
    st.tuples(
        st.lists(st.integers(0, 30), min_size=1, max_size=25),  # grid times
        st.sampled_from([0, 64, 700, 1400]),                    # payload
        st.booleans()),                                         # own template
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(plans=_source_plans,
       chain=st.booleans(),
       stateful=st.booleans(),
       sink_callback=st.booleans(),
       until_tick=st.one_of(st.none(), st.integers(0, 35)),
       reroute=st.one_of(st.none(), st.tuples(st.integers(0, 24),
                                              st.integers(0, 3))),
       stages=st.sampled_from([None, {"s1": 3, "s2": 20}]),
       blackhole=st.booleans(),
       must=st.just(frozenset()))
# The one network-layer end of a wire leg, on eager walks (the wire
# round-trip keeps the fabric off fast-forward) through two switches of
# unequal depth: h2 is forwarded to a port nothing is wired to, while
# h1's packets queue at its NIC and meet h3's at s1's uplink.
@example(plans=[([0, 0, 5], 1400, True), ([0, 3], 64, True),
                ([0, 5], 1400, True)],
         chain=True, stateful=True, sink_callback=False,
         until_tick=None, reroute=None,
         stages={"s1": 3, "s2": 20}, blackhole=True,
         must=frozenset({("s1", "no_route")}))
def test_tie_heavy_schedules_match_event_mode(plans, chain, stateful,
                                              sink_callback, until_tick,
                                              reroute, stages, blackhole,
                                              must):
    """Emission times drawn from a coarse grid — equal times within a
    source, across sources, and against the ``run(until)`` bound and a
    mid-run reroute — leave event and batched mode with the same
    per-host counters, delivery times, drops by node and reason, and
    final clock: through one switch and two (of equal or unequal stage
    counts), on a stateless fabric (fast-forward) and a stateful one
    (eager walks), into an inert sink and one with an rx callback, and
    with one host's traffic forwarded to an unwired port
    (``no_route``)."""
    sink_name, detour_port = ("h5", 4) if chain else ("h4", 3)

    def attach(topo, network, bmv2, entries):
        _cap_scheduler(network, 20_000)
        _count_drops(network)
        if blackhole:
            bmv2.delete_entry("fwd_table", entries[1])
            bmv2.insert_entry("fwd_table", [2], "fwd_set_egress", [9])
        def move_h1():
            # h1's traffic leaves the shared sink for another host (on
            # the chain: one switch earlier, a shorter path).
            bmv2.delete_entry("fwd_table", entries[0])
            bmv2.insert_entry("fwd_table", [1], "fwd_set_egress",
                              [detour_port])

        sink = network.host(sink_name)
        if sink_callback:
            # Deliveries go through the scheduler, and still land in
            # ``received`` for the snapshot to compare; with a reroute
            # drawn, the callback makes it, on the nth delivery.
            def on_rx(t, p):
                sink.received.append((t, p))
                if reroute is not None and len(sink.received) == reroute[0]:
                    move_h1()

            sink.add_rx_callback(on_rx)
        sink_ip = topo.hosts[sink_name].ipv4
        shared = make_udp(topo.hosts["h1"].ipv4, sink_ip, 1, 2,
                          payload_len=200)
        for index, (ticks, payload_len, own) in enumerate(plans):
            name = f"h{index + 1}"
            packet = (make_udp(topo.hosts[name].ipv4, sink_ip, 10 + index,
                               2, payload_len=payload_len)
                      if own else shared)
            network.attach_source(
                name, iter([(tick * _GRID_S, packet)
                            for tick in sorted(ticks)]))
        if reroute is not None and not sink_callback:
            # Zero to three half-ticks after one of h1's emissions, so
            # the change finds that packet mid-path.
            nth, lag = reroute
            ticks = sorted(plans[0][0])
            network.sim.schedule_at(
                (ticks[nth % len(ticks)] + lag / 2) * _GRID_S, move_h1)

    snap = _run_both(
        attach, hosts=4, make=_make_chain if chain else _make_network,
        until=None if until_tick is None else until_tick * _GRID_S,
        serialize_on_wire=stateful, stage_counts=stages)
    offered = sum(len(ticks) for ticks, _, _ in plans)
    assert snap["delivered"] + snap["lost"] == offered
    assert snap["lost"] == sum(snap["drops"].values())
    assert must <= set(snap["drops"]), snap["drops"]
