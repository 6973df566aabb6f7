"""``Host.received`` is a ring: the same window in both traffic planes,
countable evictions, a flat heap under repeated replays, an oracle that
reads the newest delivery, ``BoundedLog``'s uncounted half (``push`` +
``account``) equal to ``append``, and a source that stops (out of
order, or raising) leaving both planes alike."""

import dataclasses
import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.aether import (ALLOW, DENY, AetherCapacity, AetherTestbed,
                          CELL_HOST, FilterRule, SERVER_HOST)
from repro.difftest import harness
from repro.difftest.scenario import gen_scenario
from repro.indus import check, parse
from repro.compiler import compile_program
from repro.net.packet import make_udp
from repro.net.simulator import Network
from repro.net.topology import single_switch
from repro.obs import MetricsRegistry, Observability
from repro.p4.bmv2 import DEFAULT_LOG_CAPACITY, Bmv2Switch, BoundedLog
from repro.p4.programs import l2_port_forwarding
from tests.test_simulator_batched import _snapshot

CAPACITY = DEFAULT_LOG_CAPACITY
GAP_S = 20e-6


def _bare(engine, batched, obs=None, **kwargs):
    """h1 -> h2 through one switch, no checkers; three templates."""
    topo = single_switch(2)
    bmv2 = Bmv2Switch(l2_port_forwarding(), name="s1", engine=engine)
    bmv2.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    network = Network(topo, {"s1": bmv2}, batched=batched, obs=obs,
                      **kwargs)
    src, dst = topo.hosts["h1"].ipv4, topo.hosts["h2"].ipv4
    templates = [make_udp(src, dst, 1000 + i, 2222, payload_len=64 + 300 * i)
                 for i in range(3)]
    return network, templates


def _small_sink(network, capacity=512):
    """Re-seat h2's ring at ``capacity``, keeping the host's own
    eviction callback: event mode under the reference interpreter costs
    ~50 us a packet, so its replays wrap a small ring, not 4,096."""
    sink = network.host("h2")
    sink.received = BoundedLog(capacity, on_evict=sink.received._on_evict)
    return capacity


def _replay(network, templates, count, start=0.0):
    network.attach_source("h1", ((start + i * GAP_S, templates[i % 3])
                                 for i in range(count)))
    network.run()
    return network.host("h2")


# ---------------------------------------------------------------------------
# (a) the window is the same window
# ---------------------------------------------------------------------------

def test_wrapped_sink_reads_the_same_in_both_planes():
    seen = []
    for engine, batched in (("codegen", True), ("interp", False)):
        network, templates = _bare(engine, batched)
        capacity = _small_sink(network)
        count = 3 * capacity
        sink = _replay(network, templates, count)
        assert len(sink.received) == capacity
        assert sink.received.total == sink.rx_count == count
        assert sink.received.dropped == count - capacity
        seen.append(([(t, p.length, p.find("udp").src_port)
                      for t, p in sink.received],
                     sink.received.total, sink.rx_count, sink.rx_bytes,
                     sink.last_rx_time))
    assert seen[0] == seen[1]
    assert seen[0][0][-1][0] == seen[0][4]      # newest entry is the last


# ---------------------------------------------------------------------------
# Observability: an eviction is countable
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("batched", [False, True])
def test_sink_evictions_are_counted_under_a_live_registry(batched):
    obs = Observability(registry=MetricsRegistry())
    network, templates = _bare("codegen", batched, obs)
    capacity = CAPACITY if batched else _small_sink(network)
    sink = _replay(network, templates, 3 * capacity)
    assert len(sink.received) == capacity
    assert sink.received.total == sink.rx_count == 3 * capacity
    assert obs.registry.value("log_evictions_total", "received", "h2") \
        == sink.received.total - capacity == sink.received.dropped
    assert obs.registry.value("log_evictions_total", "received", "h1") == 0


def test_fast_tier_settles_a_run_of_evictions_in_one_call():
    network, templates = _bare("codegen", True)
    sink = network.host("h2")
    calls = []
    sink.received = BoundedLog(CAPACITY, on_evict=calls.append)
    _replay(network, templates, 2 * CAPACITY)
    # Three recording walks deliver through ``Host.deliver``; the rest
    # is one fast-tier run, settled by one ``account``.
    assert calls == [CAPACITY]


def test_no_registry_no_callback():
    network, _ = _bare("codegen", True)
    assert all(host.received._on_evict is None
               for host in network.hosts.values())
    assert network.reports._on_evict is None


# ---------------------------------------------------------------------------
# (b) the heap is flat
# ---------------------------------------------------------------------------

def _objects_after(one_pass):
    """``len(gc.get_objects())`` after each of two passes that follow a
    warm one.  The heap as the warm pass left it is frozen out of the
    count, and out of what counting costs: tier-1 runs this in a
    process that holds a thousand tests' worth of objects."""
    one_pass(0)
    gc.collect()
    gc.freeze()
    try:
        counts = []
        for k in (1, 2):
            one_pass(k)
            gc.collect()
            counts.append(len(gc.get_objects()))
    finally:
        gc.unfreeze()
    return counts


def test_bare_replay_passes_leave_the_heap_flat():
    network, templates = _bare("codegen", True)
    count = CAPACITY + CAPACITY // 2
    span = count * GAP_S + 1e-3
    counts = _objects_after(
        lambda k: _replay(network, templates, count, start=k * span))
    assert network.host("h2").rx_count == 3 * count
    # At the parent a pass left one tuple per delivery behind.
    assert abs(counts[1] - counts[0]) < 50, counts


def test_aether_replay_passes_leave_the_heap_flat():
    sessions, count = 400, CAPACITY + 4     # uplink deliveries a pass
    tb = AetherTestbed(capacity=AetherCapacity(max_sessions=sessions,
                                               rules_per_session=2),
                       engine="codegen", batched=True)
    server = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("slice0", [
        FilterRule(priority=20, ip_prefix=(server, 32), proto=17,
                   l4_port=(80, 80), action=ALLOW),
        FilterRule(priority=1, action=DENY)])
    imsis = [f"imsi{i}" for i in range(1, sessions + 1)]
    tb.portal.add_members("slice0", imsis)
    tb.attach_many([(imsi, i) for i, imsi in enumerate(imsis, 1)])
    uplink = [tb.uplink_packet(imsi, server, 80) for imsi in imsis]
    span = count * GAP_S + 1e-3
    sink = tb.network.host(SERVER_HOST)

    def one_pass(k):
        tb.network.attach_source(
            CELL_HOST, ((k * span + i * GAP_S, uplink[i % sessions])
                        for i in range(count)))
        tb.network.run()

    counts = _objects_after(one_pass)
    assert abs(counts[1] - counts[0]) < 50, counts
    assert sink.rx_count == sink.received.total == 3 * count
    assert len(sink.received) == CAPACITY


# ---------------------------------------------------------------------------
# (c) push + account is append
# ---------------------------------------------------------------------------

@given(capacity=st.integers(min_value=1, max_value=6),
       steps=st.lists(st.integers(min_value=0, max_value=9), max_size=12))
@settings(max_examples=60, deadline=None)
def test_push_and_account_are_append_in_two_halves(capacity, steps):
    """A step of 0 is one ``append`` on both logs; a step of n > 0 is n
    appends on one and n pushes settled by one ``account(n)`` on the
    other."""
    one_by_one, settled = [], []
    a = BoundedLog(capacity, on_evict=one_by_one.append)
    b = BoundedLog(capacity, on_evict=settled.append)
    item = 0
    for n in steps:
        for _ in range(n or 1):
            a.append(item)
            if n:
                b.push(item)
            else:
                b.append(item)
            item += 1
        if n:
            b.account(n)
        assert a == b
        assert a.total == b.total == item
        assert a.dropped == b.dropped == item - len(b)
        assert sum(one_by_one) == sum(settled) == b.dropped
    assert all(n > 0 for n in settled)


# ---------------------------------------------------------------------------
# The oracle reads the newest delivery, not an absolute position
# ---------------------------------------------------------------------------

def _delivering_scenario():
    for seed in range(40):
        scenario = gen_scenario(seed)
        compiled = compile_program(check(parse(scenario.source())),
                                   name=f"dt{seed}")
        run = harness._run_engine(scenario, compiled, "interp")
        if any(run.verdicts):
            return scenario, compiled, run
    raise AssertionError("no generated scenario delivers a packet")


def test_oracle_reads_deliveries_from_a_wrapped_sink(monkeypatch):
    scenario, compiled, once = _delivering_scenario()
    rounds = 4
    again = dataclasses.replace(scenario, packets=scenario.packets * rounds)
    build = harness.build_scenario_deployment

    def small_sink(scenario, *args, **kwargs):
        dep = build(scenario, *args, **kwargs)
        dep.network.host(scenario.dst_host).received = BoundedLog(2)
        return dep

    reference = harness._run_engine(again, compiled, "interp")
    monkeypatch.setattr(harness, "build_scenario_deployment", small_sink)
    delivered = sum(once.verdicts) * rounds
    assert delivered > 2, "the small sink must wrap"
    for engine in ("interp", "codegen"):
        run = harness._run_engine(again, compiled, engine)
        assert run.verdicts == reference.verdicts
        assert run.delivered == reference.delivered


# ---------------------------------------------------------------------------
# A source whose times go backwards is refused, alike in both modes
# ---------------------------------------------------------------------------

def _out_of_order(batched, templates_differ):
    network, templates = _bare("codegen", batched)
    first = templates[0]
    packets = ([first.copy() for _ in range(4)] if templates_differ
               else [first] * 4)
    emissions = [(1e-3, packets[0]), (3e-3, packets[1]),
                 (2e-3, packets[2]), (4e-3, packets[3])]
    pulled = []

    def stream():
        for emission in emissions:
            pulled.append(emission[0])
            yield emission

    network.attach_source("h1", stream())
    with pytest.raises(ValueError) as raised:
        network.run()
    sink, source = network.host("h2"), network.host("h1")
    return (str(raised.value), pulled, source.tx_count, sink.rx_count,
            sink.rx_bytes, [t for t, _ in sink.received],
            network.packets_delivered)


@pytest.mark.parametrize("templates_differ", [True, False])
def test_out_of_order_source_is_refused_alike(templates_differ):
    """Distinct packets take recording walks (the drain's generic
    step); one template takes the fast tier after its first walk."""
    event = _out_of_order(False, templates_differ)
    batched = _out_of_order(True, templates_differ)
    assert event == batched
    message, pulled, tx, rx, _, times, delivered = event
    assert "0.002" in message and "0.003" in message and "'h1'" in message
    # The emission at 2 ms was pulled while the one at 3 ms was being
    # taken: neither is sent, nothing later is pulled, and the first
    # delivery stands.
    assert pulled == [1e-3, 3e-3, 2e-3]
    assert tx == rx == delivered == 1
    assert len(times) == 1 and 1e-3 < times[0] < 1.1e-3


# ---------------------------------------------------------------------------
# A source that raises mid-stream leaves both modes in one state
# ---------------------------------------------------------------------------

class _SourceFailed(Exception):
    pass


def _raising_source(batched, gap_s, sent, serialize_on_wire):
    """``sent`` emissions ``gap_s`` apart, then the stream raises; a
    second ``run()`` finishes what was in flight."""
    network, templates = _bare("codegen", batched,
                               serialize_on_wire=serialize_on_wire)

    def stream():
        for i in range(sent):
            yield i * gap_s, templates[i % 3]
        raise _SourceFailed

    network.attach_source("h1", stream())
    with pytest.raises(_SourceFailed):
        network.run()
    network.run()
    return _snapshot(network)


@pytest.mark.parametrize("serialize_on_wire", [False, True])
@pytest.mark.parametrize("sent", [10, 50])
@pytest.mark.parametrize("gap_s", [10e-6, 1e-6])
def test_a_raising_source_ends_where_event_mode_ends(gap_s, sent,
                                                     serialize_on_wire):
    """Batched mode writes back the fast tier's counters, hands parked
    packets to the scheduler and keeps the clock when the pull raises,
    so the run that follows ends where event mode's does: the emission
    whose successor raised is not sent, every earlier one arrives."""
    event = _raising_source(False, gap_s, sent, serialize_on_wire)
    batched = _raising_source(True, gap_s, sent, serialize_on_wire)
    assert batched == event
    assert event["hosts"]["h1"]["tx"] == event["hosts"]["h2"]["rx"] \
        == sent - 1
    assert event["now"] >= (sent - 1) * gap_s
