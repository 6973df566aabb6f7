"""``aether_soak``: the Section 5.2 Aether testbed at 100K sessions with
``application_filtering`` live.

Set-up is the control plane: bulk attach in batches of 1,000, then churn
of every 10th UE (``detach_many`` + re-attach), through
``insert_entries`` / ``delete_entries`` / index folds / engine rebinds,
and the first packets after them, where the engines' lazily rebuilt
table indexes are paid for.  The timed passes then replay paced GTP-U
uplink, downlink and denied traffic through the UPF with that state
resident -- the one workload where heap size (about 4.9 KB and 46
objects per session) bears on per-packet cost.  The same p4 tables are
*written* in the first part and *read* in the second: a lookup win paid
for on insert moves ``setup_s``, a cache that costs memory
``peak_rss_mb``.

About half of the attach wall is the cyclic garbage collector walking a
growing heap, and a process that builds several testbeds in a row
attaches slower each time, so the attach path is measured once per run,
in a fresh process, as this workload's set-up rather than as repeated
trials (README, "Where the attach path is measured").

The seed picks where in the 172.16.0.0/12 plan the UE block sits and
which UEs are churned and replayed; it never changes how much work there
is.
"""

from __future__ import annotations

import random
import statistics
from typing import Any, Dict, List, Sequence, Tuple

from harness import (ENGINE, REFERENCE_ENGINE, Run, Seconds,
                     current_rss_bytes, digest, percentile)

from repro.aether import (ALLOW, CELL_HOST, DENY, MAX_UE_INDEX, SERVER_HOST,
                          AetherCapacity, AetherTestbed, FilterRule)

import probes

SLICES = 4
BATCH = 1000
ALLOWED_DPORT = 80
DENIED_DPORT = 9999
PACE_PPS = 100_000.0


def _imsi(index: int) -> str:
    return f"imsi{index}"


class Testbed:
    """An Aether testbed with four provisioned slices and ``sessions``
    enrolled (not yet attached) subscribers."""

    def __init__(self, run: Run, sessions: int, first: int, engine: str,
                 batched: bool) -> None:
        with run.spans.span("runtime.deploy"):
            self.tb = AetherTestbed(
                capacity=AetherCapacity(max_sessions=sessions,
                                        rules_per_session=2),
                engine=engine, batched=batched)
        self.server_ip = self.tb.topology.hosts[SERVER_HOST].ipv4
        self.indices = list(range(first, first + sessions))
        with run.spans.span("aether.provision"):
            rules = [
                FilterRule(priority=20, ip_prefix=(self.server_ip, 32),
                           proto=17,
                           l4_port=(ALLOWED_DPORT, ALLOWED_DPORT),
                           action=ALLOW),
                FilterRule(priority=1, action=DENY),
            ]
            members: Dict[str, List[str]] = {}
            for index in self.indices:
                members.setdefault(f"slice{index % SLICES}",
                                   []).append(_imsi(index))
            for name in sorted(members):
                self.tb.provision_slice(name, rules)
                self.tb.portal.add_members(name, members[name])

    @property
    def attached(self) -> int:
        return len(self.tb.onos.clients)

    def attach(self, run: Run, indices: Sequence[int]) -> List[Seconds]:
        """Attach in batches of ``BATCH``; one wall per batch."""
        walls = []
        for at in range(0, len(indices), BATCH):
            pairs = [(_imsi(i), i) for i in indices[at:at + BATCH]]
            with run.spans.span("aether.attach_many"):
                walls.append(run.timed(self.tb.attach_many, pairs)[1])
        return walls

    def detach(self, run: Run, indices: Sequence[int]) -> List[Seconds]:
        walls = []
        for at in range(0, len(indices), BATCH):
            imsis = [_imsi(i) for i in indices[at:at + BATCH]]
            with run.spans.span("aether.detach_many"):
                walls.append(run.timed(self.tb.detach_many, imsis)[1])
        return walls

    def emissions(self, ues: Sequence[int]
                  ) -> Tuple[list, list, int, int]:
        """One pass of paced traffic: every UE sends an allowed uplink
        packet, every 4th receives a downlink packet, every 8th sends
        one the slice policy denies.  Returns (uplink, downlink,
        expected deliveries, denied)."""
        tb, server = self.tb, self.server_ip
        gap = 1.0 / PACE_PPS
        uplink, downlink = [], []
        tick = 0
        for n, index in enumerate(ues):
            uplink.append((tick * gap, tb.uplink_packet(
                _imsi(index), server, ALLOWED_DPORT)))
            tick += 1
            if n % 4 == 0:
                downlink.append((tick * gap, tb.downlink_packet(
                    server, _imsi(index), ALLOWED_DPORT)))
                tick += 1
            if n % 8 == 0:
                uplink.append((tick * gap, tb.uplink_packet(
                    _imsi(index), server, DENIED_DPORT)))
                tick += 1
        denied = (len(ues) + 7) // 8
        return uplink, downlink, tick - denied, denied

    def replay(self, run: Run, uplink: list, downlink: list, at_s: float,
               slices: int = 1) -> Dict[str, Any]:
        """Replay one pass starting at virtual time ``at_s``."""
        network = self.tb.network
        cell, server = network.host(CELL_HOST), network.host(SERVER_HOST)
        before = (cell.rx_count + server.rx_count,
                  cell.rx_bytes + server.rx_bytes, len(self.tb.reports))
        span = max(uplink[-1][0], downlink[-1][0])
        network.attach_source(
            CELL_HOST, ((at_s + t, p) for t, p in uplink))
        network.attach_source(
            SERVER_HOST, ((at_s + t, p) for t, p in downlink))
        walls = run.run_sliced(network, at_s, at_s + span, slices)
        return {"delivered": cell.rx_count + server.rx_count - before[0],
                "bytes": cell.rx_bytes + server.rx_bytes - before[1],
                "reports": len(self.tb.reports) - before[2],
                "walls": walls}

    def engine_calls(self) -> int:
        return sum(s.packets_processed
                   for s in self.tb.deployment.switches.values())


def _first_index(run: Run, sessions: int) -> int:
    return random.Random(run.seed).randrange(1, MAX_UE_INDEX - sessions)


def _uplink_sample(run: Run, bed: Testbed, ues: Sequence[int]) -> list:
    return [(bed.tb.uplink_packet(_imsi(i), bed.server_ip, ALLOWED_DPORT), 1)
            for i in ues[:run.size(2000, 200)]]


def _switch_probes(run: Run, bed: Testbed, ues: Sequence[int]) -> None:
    probes.switch(run, bed.tb.deployment.switches["leaf1"],
                  _uplink_sample(run, bed, ues), table="upf_routes",
                  action="upf_route",
                  row=lambda i: ([((11 << 24) | i, 32)], [1]))


def run_workload(run: Run) -> None:
    sessions = run.size(100_000, 4_000)
    small = run.size(2_000, 400)
    replay_ues = run.size(2_000, 200)
    first = _first_index(run, sessions)
    rng = random.Random(run.seed + 1)
    min_passes = 5

    def first_packets(bed: Testbed, imsi: str) -> Seconds:
        """The first packets after a bulk control-plane write, one in
        each direction, are where the lazily rebuilt table indexes get
        paid for (about 11 us per resident session at HEAD).  They are also the check that the
        state forwards: allowed delivered, denied dropped, no report."""
        with run.spans.span("net.first_packets"), run.stopwatch() as watch:
            allowed = bed.tb.send_uplink(imsi, bed.server_ip, ALLOWED_DPORT)
            denied = bed.tb.send_uplink(imsi, bed.server_ip, DENIED_DPORT)
            down = bed.tb.send_downlink(bed.server_ip, imsi, ALLOWED_DPORT)
        run.checks.expect(allowed.delivered and down.delivered
                          and not denied.delivered,
                          "uplink and downlink delivered, denied dropped")
        run.checks.equal(len(bed.tb.reports), 0, "reports")
        return watch.seconds

    # Set-up: bring the sessions up, churn every 10th, make the traffic.
    # Each batch is its own timing, so each is scaled by the host speed
    # around it rather than by two probes seconds apart.
    with run.traced():
        with run.setup("aether.testbed"):
            bed = Testbed(run, sessions, first, ENGINE, batched=True)
        rss_before = current_rss_bytes()
        attach = bed.attach(run, bed.indices)
        rss_after = current_rss_bytes()
        run.checks.ops(sessions, sessions - bed.attached,
                       "sessions attached")
        churned = bed.indices[::10]
        ready = first_packets(bed, _imsi(churned[0]))
        detach = bed.detach(run, churned)
        run.checks.ops(len(churned),
                       bed.attached - (sessions - len(churned)),
                       "sessions detached")
        reattach = bed.attach(run, churned)
        run.checks.ops(len(churned), sessions - bed.attached,
                       "sessions re-attached")
        again = first_packets(bed, _imsi(churned[0]))
        run.setup_once += (sum(attach) + ready + sum(detach)
                           + sum(reattach) + again)
        ues = sorted(rng.sample(bed.indices, replay_ues))
        with run.setup("aether.tracegen"):
            uplink, downlink, expected, denied = bed.emissions(ues)
    offered = len(uplink) + len(downlink)
    run.counts["attached"] = bed.attached
    run.counts["churned"] = len(churned)
    run.counts["offered"] = offered
    run.counts["expected"] = expected
    run.counts["input_digest"] = digest((first, ues))
    period = max(uplink[-1][0], downlink[-1][0]) + 1e-3
    _control_plane_extras(run, attach, detach, ready, len(churned),
                          (rss_after - rss_before) / sessions)

    # Warm-up and reference in one pass: the same traffic on two small
    # testbeds, (codegen, batched) against (interp, event).  The codegen
    # one stays as the small-scale base of the traced run's ratios.
    outcomes = []
    for engine, batched in ((REFERENCE_ENGINE, False), (ENGINE, True)):
        baseline = Testbed(run, small, first, engine, batched)
        baseline.attach(run, baseline.indices)
        baseline_ues = baseline.indices[::4]
        up, down, want, _ = baseline.emissions(baseline_ues)
        result = baseline.replay(run, up, down, 0.0)
        del result["walls"]
        outcomes.append(result)
    run.checks.equal(outcomes[1], outcomes[0],
                     "small testbed (codegen,batched) vs (interp,event)")
    run.checks.equal(outcomes[0]["delivered"], want,
                     "reference delivers allowed, drops denied")

    def one_pass(k: int) -> List[float]:
        with run.spans.span("net.replay"):
            result = bed.replay(run, uplink, downlink, k * period, SLICES)
        run.checks.ops(offered, abs(result["delivered"] - expected),
                       "packets delivered as expected")
        run.checks.equal(result["reports"], 0, "reports")
        run.counts["delivered"] = result["delivered"]
        return result["walls"]

    passes: List[List[float]] = []
    while run.more(len(passes), min_passes):
        passes.append(one_pass(len(passes) + 1))
    run.finish(run.throughput(offered, passes))
    run.extra["pps"] = run.metrics["ops_per_s"]
    if not run.trace:
        return

    base = sum(passes[-1])
    network = bed.tb.network
    calls, lost = bed.engine_calls(), network.packets_lost
    with run.traced():
        traced = one_pass(len(passes) + 1)
    run.layer_table(ops=offered)
    run.metrics["bench.trace_overhead_ratio"] = sum(traced) / base
    run.metrics["bench.us_per_op"] = base / offered * 1e6
    run.metrics["net.engine_calls_per_packet"] = \
        (bed.engine_calls() - calls) / offered
    # Denied packets are dropped by design; anything beyond is a loss.
    run.metrics["net.packets_lost"] = network.packets_lost - lost - denied
    probes.universal(run, parse_names=["application_filtering"])
    probes.codegen_lines(run, ["application_filtering"])
    _switch_probes(run, bed, ues)
    # The O(1) claim: per-packet cost with 100K sessions resident over
    # the same with 2K, on the leaf alone and through the whole network.
    small_us = statistics.median(probes.process_seconds(
        run, baseline.tb.deployment.switches["leaf1"],
        _uplink_sample(run, baseline, baseline_ues))) * 1e6
    run.extra["p4.process_us.upf"] = run.metrics["p4.process_us"]
    run.extra["p4.upf_flatness_ratio"] = \
        run.metrics["p4.process_us"] / small_us
    up, down, _, _ = baseline.emissions(baseline_ues)
    small_pass = statistics.median(
        sum(baseline.replay(run, up, down, k * period)["walls"])
        for k in (1, 2, 3))
    run.extra["aether.replay_us_per_packet"] = base / offered * 1e6
    run.extra["aether.replay_scaling_ratio"] = \
        (base / offered) / (small_pass / (len(up) + len(down)))


def _control_plane_extras(run: Run, attach: List[Seconds],
                          detach: List[Seconds], ready: Seconds,
                          churned: int, rss_per_session: float) -> None:
    """The issue's names for the parts of this workload's set-up
    (``attach`` is whole batches, ``detach`` may end on a short one)."""
    per_session = [t / BATCH * 1e6 for t in attach]
    run.extra["attach_per_s"] = len(attach) * BATCH / sum(attach)
    run.extra["detach_per_s"] = churned / sum(detach)
    run.extra["aether.attach_us_p50"] = statistics.median(per_session)
    run.extra["aether.attach_us_p90"] = percentile(per_session, 0.9)
    edge = max(1, len(attach) // 10)
    run.extra["aether.attach_scaling_ratio"] = (
        statistics.median(per_session[-edge:])
        / statistics.median(per_session[:edge]))
    run.extra["aether.detach_us_p50"] = statistics.median(
        t / min(BATCH, churned) * 1e6 for t in detach)
    run.extra["aether.first_packets_ms"] = ready * 1e3
    run.extra["aether.rss_bytes_per_session"] = rss_per_session
