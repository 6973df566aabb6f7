"""Per-layer probes of the traced run.

Each probe times calls into one layer's public functions from outside.
``universal`` probes need nothing from the workload and run identically
in every workload process; ``switch`` probes run on the workload's own
leaf switch with the workload's own packets, so ``p4.process_us`` means
the checked pipeline on ``fabric_checked``, the bare one on
``fabric_bare`` and the UPF at 100K sessions on ``aether_soak``.

Like every timing of the benchmark, probe results are in reference
time: each group of raw timings is scaled by the host speed measured
around the group.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, List, Sequence, Tuple

from harness import ENGINE, Run, clock, percentile

from repro import api
from repro.experiments.throughput import ReplayFeed
from repro.indus.parser import parse
from repro.net.packet import ip, make_gtpu_encapsulated, make_udp
from repro.net.simulator import Simulator
from repro.p4.bmv2 import Bmv2Switch
from repro.properties import TABLE1_ORDER, compile_suite, load_source
from repro.workloads.campus import CampusTraceGenerator

BATCH = 64
BULK = 1000


def _each(run: Run, calls: Sequence[Callable[[], Any]]) -> List[float]:
    """Time each call once; the timings in reference seconds."""
    walls = []
    with run.stopwatch() as watch:
        for call in calls:
            start = clock()
            call()
            walls.append(clock() - start)
    return [wall * watch.seconds.speed for wall in walls]


def _median(run: Run, call: Callable[[], Any], repeats: int) -> float:
    return statistics.median(_each(run, [call] * repeats))


def _noop() -> None:
    pass


def universal(run: Run, parse_names: Sequence[str] = (),
              parse_sources: Sequence[str] = ()) -> None:
    """Probes that depend on no workload object."""
    quick = run.quick
    events = 10_000 if quick else 200_000

    def pump() -> None:
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-7, _noop)
        sim.run()

    run.metrics["net.sim_events_per_s"] = events / run.timed(pump)[1]

    outer = (ip(192, 168, 0, 1), ip(192, 168, 0, 100), 7)
    inner = make_udp(ip(172, 16, 0, 1), ip(10, 0, 1, 2), 40000, 80,
                     payload_len=100)
    gtpu = make_gtpu_encapsulated(*outer, inner)
    repeats = 200 if quick else 2000
    run.metrics["net.packet.copy_us"] = \
        _median(run, gtpu.copy, repeats) * 1e6
    run.metrics["net.packet.make_gtpu_us"] = _median(
        run, lambda: make_gtpu_encapsulated(*outer, inner), repeats) * 1e6

    run.metrics["compiler.compile_suite_ms"] = _median(
        run, lambda: compile_suite(list(TABLE1_ORDER)), 3) * 1e3

    sources = list(parse_sources) or [load_source(n) for n in parse_names]
    run.metrics["indus.parse_ms_per_program"] = statistics.median(
        _each(run, [lambda s=s: parse(s) for s in sources])) * 1e3

    if "workloads.tracegen_pps" not in run.metrics:
        feed = ReplayFeed(
            CampusTraceGenerator(seed=run.seed, reuse_packets=True),
            src_ip=ip(10, 0, 1, 1), dst_ip=ip(10, 0, 2, 1),
            rate_pps=100_000.0, duration_s=0.005 if quick else 0.05)
        trace, took = run.timed(lambda: list(feed.emissions()))
        run.metrics["workloads.tracegen_pps"] = len(trace) / took


def codegen_lines(run: Run, programs: Sequence[Any]) -> None:
    """Size of the generated code for the workload's checkers (an exact
    count: it repeats run to run)."""
    run.metrics["p4.codegen_src_lines"] = sum(
        api.generated_source(program).count("\n") for program in programs)


def process_seconds(run: Run, leaf: Bmv2Switch,
                    sample: List[Tuple[Any, int]]) -> List[float]:
    """One ``process`` call per sample packet, after a short warm-up."""
    for packet, port in sample[:BATCH]:
        leaf.process(packet, port)
    return _each(run, [lambda p=packet, n=port: leaf.process(p, n)
                       for packet, port in sample])


def switch(run: Run, leaf: Bmv2Switch, sample: List[Tuple[Any, int]],
           table: str, action: str,
           row: Callable[[int], Tuple[list, list]]) -> None:
    """Probes on the workload's own leaf switch.  ``sample`` is
    ``(packet, ingress_port)`` pairs from the workload's traffic;
    ``row(i)`` yields the i-th distinct ``(match, args)`` for ``table``
    so the control-plane probes have entries to write."""
    calls = process_seconds(run, leaf, sample)
    steady = statistics.median(calls)
    run.metrics["p4.process_us"] = steady * 1e6
    run.extra["p4.process_us_p90"] = percentile(calls, 0.9) * 1e6

    batches = [sample[at:at + BATCH] for at in range(0, len(sample), BATCH)]
    took = _each(run, [lambda b=b: leaf.process_batch(b) for b in batches])
    run.metrics["p4.process_batch_us"] = statistics.median(
        t / len(b) for t, b in zip(took, batches)) * 1e6

    repeats = 2 if run.quick else 3
    run.metrics["p4.engine_build_ms"] = _median(
        run, lambda: Bmv2Switch(leaf.program, name="probe", switch_id=1,
                                engine=ENGINE), repeats) * 1e3

    # A control-plane write, then the first packet after it: the codegen
    # engine rebuilds a table's index lazily, so that packet is where the
    # write's cost lands.  Reported net of a steady packet.
    packet, port = sample[0]
    written: List[Any] = []

    def insert_one(i: int) -> None:
        match, args = row(BULK + i)
        written[:] = [leaf.insert_entry(table, match, action, args)]
        leaf.process(packet, port)

    def delete_written() -> None:
        leaf.delete_entries(table, written)
        leaf.process(packet, port)

    singles = []
    for i in range(5 if run.quick else 20):
        singles.append(_each(run, [lambda: insert_one(i)])[0] - steady)
        delete_written()
    run.metrics["p4.ctl.insert_entry_us"] = statistics.median(singles) * 1e6

    rows = [(match, action, args, 0)
            for match, args in (row(i) for i in range(BULK))]

    def insert_bulk() -> None:
        written[:] = leaf.insert_entries(table, rows)
        leaf.process(packet, port)

    inserts, deletes = [], []
    for _ in range(repeats):
        put, cut = _each(run, [insert_bulk, delete_written])
        inserts.append((put - steady) / BULK)
        deletes.append((cut - steady) / BULK)
    run.metrics["p4.ctl.insert_entries_us"] = \
        statistics.median(inserts) * 1e6
    run.metrics["p4.ctl.delete_entries_us"] = \
        statistics.median(deletes) * 1e6
