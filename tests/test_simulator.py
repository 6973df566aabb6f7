"""Event-driven simulator tests: scheduling, latency model, queueing."""

import pytest

from repro.net.packet import ip, make_udp
from repro.net.simulator import Network, Simulator
from repro.net.topology import Topology, leaf_spine, single_switch
from repro.p4.bmv2 import Bmv2Switch
from repro.p4.programs import l2_port_forwarding


def test_simulator_orders_events_by_time():
    sim = Simulator()
    order = []
    sim.schedule(0.3, lambda: order.append("c"))
    sim.schedule(0.1, lambda: order.append("a"))
    sim.schedule(0.2, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.schedule(0.1, lambda l=label: order.append(l))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.run(until=0.5)
    assert not fired
    assert sim.now == 0.5
    sim.run()
    assert fired


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Simulator().schedule(-1, lambda: None)


def test_wheel_slots_are_created_by_their_first_push():
    """The wheel starts with no slot heaps.  A never-used slot, a time
    far beyond the window and a slot index that aliases an occupied
    one (``slot + wheel_slots``) each get theirs when first pushed to —
    directly or by the far heap's migration — and everything still pops
    in ``(time, seq)`` order."""
    sim = Simulator(slot_width_s=1.0, wheel_slots=8)
    assert sim._wheel == [None] * 8
    order = []

    def at(time, label):
        sim.schedule_at(time, lambda: order.append((sim.now, label)))

    def used():
        return [i for i, slot in enumerate(sim._wheel) if slot is not None]

    sim.now = 4.0  # where a batched walk may leave the clock
    at(100.5, "far-2")      # beyond the window: the far heap
    at(99.5, "far-1")
    at(3.5, "overdue")      # slot 3, never used, below the window's base
    at(11.5, "alias")       # slot 3 + 8: the same physical slot
    at(11.5, "alias-2")
    at(3.5, "overdue-2")
    assert used() == [3] and sim.pending == 6
    sim.run()
    assert order == [(3.5, "overdue"), (3.5, "overdue-2"), (11.5, "alias"),
                     (11.5, "alias-2"), (99.5, "far-1"), (100.5, "far-2")]
    # far-1 was popped from the far heap; far-2 migrated to slot 100 % 8.
    assert used() == [3, 4] and sim.pending == 0


def make_single_switch_network(**kwargs):
    topo = single_switch(2)
    program = l2_port_forwarding()
    bmv2 = Bmv2Switch(program, name="s1")
    bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    bmv2.insert_entry("fwd_table", [2], "fwd_set_egress", [1])
    return topo, Network(topo, {"s1": bmv2}, **kwargs)


def test_packet_delivery_end_to_end():
    topo, network = make_single_switch_network()
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2)
    network.host("h1").send(packet)
    network.run()
    assert network.host("h2").rx_count == 1
    assert network.packets_delivered == 1


def test_latency_model_components():
    """Delivery time = 2x(serialization + propagation) + switch delay."""
    topo, network = make_single_switch_network()
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2,
                      payload_len=100)
    received = []
    network.host("h2").add_rx_callback(lambda t, p: received.append(t))
    network.host("h1").send(packet)
    network.run()
    link = topo.link_at("s1", 1)
    tx = packet.length * 8 / link.bandwidth_bps
    device = network.switch("s1")
    expected = 2 * (tx + link.latency_s) + device.processing_delay_s
    assert received[0] == pytest.approx(expected, rel=1e-9)


def test_processing_delay_scales_with_stages():
    topo1, net1 = make_single_switch_network(stage_counts={"s1": 12})
    topo2, net2 = make_single_switch_network(stage_counts={"s1": 20})
    times = []
    for topo, network in ((topo1, net1), (topo2, net2)):
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2)
        network.host("h2").add_rx_callback(
            lambda t, p, bucket=times: bucket.append(t))
        network.host("h1").send(packet)
        network.run()
    assert times[1] > times[0]


def test_output_queueing_serializes_packets():
    """Two packets racing for the same output port queue behind each
    other: arrivals are separated by at least one serialization time."""
    topo, network = make_single_switch_network()
    arrivals = []
    network.host("h2").add_rx_callback(lambda t, p: arrivals.append(t))
    for _ in range(2):
        packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4,
                          1, 2, payload_len=1400)
        network.host("h1").send(packet)
    network.run()
    link = topo.link_at("s1", 2)
    tx = (1400 + 42) * 8 / link.bandwidth_bps
    assert arrivals[1] - arrivals[0] >= tx * 0.99


def test_unforwardable_packet_counts_as_lost():
    topo = single_switch(2)
    program = l2_port_forwarding()
    bmv2 = Bmv2Switch(program, name="s1")  # no fwd entries -> default drop
    network = Network(topo, {"s1": bmv2})
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 1, 2)
    network.host("h1").send(packet)
    network.run()
    assert network.packets_lost == 1
    assert network.host("h2").rx_count == 0


def test_missing_switch_program_rejected():
    topo = single_switch(1)
    with pytest.raises(ValueError):
        Network(topo, {})


def test_multi_hop_delivery_across_fabric():
    topo = leaf_spine(2, 2, 2)
    switches = {}
    for name in topo.switches:
        bmv2 = Bmv2Switch(l2_port_forwarding(f"fwd_{name}"), name=name)
        switches[name] = bmv2
    # Static path h1 -> leaf1 -> spine1 -> leaf2 -> h3 and reverse.
    switches["leaf1"].insert_entry("fwd_table", [1], "fwd_set_egress", [3])
    switches["spine1"].insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    switches["leaf2"].insert_entry("fwd_table", [3], "fwd_set_egress", [1])
    network = Network(topo, switches)
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h3"].ipv4, 1, 2)
    network.host("h1").send(packet)
    network.run()
    assert network.host("h3").rx_count == 1


def test_host_callbacks_receive_time_and_packet():
    topo, network = make_single_switch_network()
    seen = []
    network.host("h2").add_rx_callback(lambda t, p: seen.append((t, p)))
    packet = make_udp(topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4, 7, 8)
    network.host("h1").send(packet)
    network.run()
    assert len(seen) == 1
    t, received = seen[0]
    assert t > 0
    assert received.find("udp").src_port == 7
