"""Event-driven simulator tests: scheduling, latency model, queueing."""

import pytest
from hypothesis import given, settings, strategies as st

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


def test_run_until_refuses_to_rewind_the_clock():
    """A ``run(until)`` before ``now`` raises and changes nothing: the
    clock stays put, so a later ``schedule`` cannot land behind an
    event that already ran."""
    sim = Simulator()
    fired = []
    sim.schedule_at(1.0, lambda: fired.append(sim.now))
    sim.schedule_at(3.0, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    with pytest.raises(ValueError):
        sim.run(until=0.5)
    assert sim.now == 2.0 and sim.pending == 1
    sim.schedule(0.1, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 2.1, 3.0]


class _SortedReference:
    """The scheduler's specification: the pending event with the least
    ``(time, insertion)`` runs next."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self._inserted = 0

    def schedule_at(self, time, callback):
        self.queue.append((time, self._inserted, callback))
        self._inserted += 1

    @property
    def pending(self):
        return len(self.queue)

    def _head(self):
        return min(self.queue, key=lambda event: event[:2])

    def peek_next_time(self):
        return self._head()[0] if self.queue else None

    def run(self, until=None):
        if until is not None and until < self.now:
            raise ValueError("cannot run backwards")
        while self.queue:
            head = self._head()
            if until is not None and head[0] > until:
                break
            self.queue.remove(head)
            self.now = head[0]
            head[2]()
        if until is not None:
            self.now = until


# Offsets on a quarter grid: sums stay exact, so equal times are exact
# ties, and a negative offset is an overdue time below ``now``.
_offsets = st.integers(-4, 8).map(lambda k: k / 4)
_scheduler_steps = st.lists(st.one_of(
    # ("at", offset from now, offsets its callback schedules from then)
    st.tuples(st.just("at"), _offsets, st.lists(_offsets, max_size=3)),
    # ("run", until - now): a negative one must be refused
    st.tuples(st.just("run"), _offsets, st.just(())),
), max_size=30)


@settings(max_examples=200, deadline=None)
@given(steps=_scheduler_steps)
def test_scheduler_matches_the_sorted_reference(steps):
    """Overdue times, exact ties, events scheduled from inside
    callbacks and ``run(until)`` slices: the heap runs every event in
    the reference's order, at the reference's times, and agrees on
    ``now``, ``pending`` and the next time after every slice."""
    def drive(sim):
        fired = []

        def event(label, children):
            def fire():
                fired.append((label, sim.now))
                for j, offset in enumerate(children):
                    sim.schedule_at(sim.now + offset, event((label, j), ()))
            return fire

        after_slices = []
        for i, (kind, offset, children) in enumerate(steps):
            if kind == "at":
                sim.schedule_at(sim.now + offset, event(i, children))
                continue
            try:
                sim.run(until=sim.now + offset)
            except ValueError:
                after_slices.append("refused")
            after_slices.append((sim.now, sim.pending, sim.peek_next_time(),
                                 list(fired)))
        sim.run()
        return fired, after_slices, sim.now, sim.pending

    assert drive(Simulator()) == drive(_SortedReference())


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
