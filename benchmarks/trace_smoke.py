"""CI smoke: a traced fig12 scenario produces a sane event stream.

Runs one short Figure-12 arm (full checker suite) with live
observability, then asserts the observable invariants:

* the JSONL export parses line-by-line,
* key metrics are nonzero (packets processed, table lookups,
  deliveries, per-packet latency samples, phase timers),
* the event stream contains the core lifecycle kinds in a consistent
  shape (every parse has a matching switch, seq strictly increasing).

Usage: ``PYTHONPATH=src python benchmarks/trace_smoke.py``
"""

from __future__ import annotations

import io
import json
import sys

from repro.experiments import Fig12Config, run_rtt_experiment
from repro.experiments.fig12 import ALL_CHECKERS
from repro.obs import Observability


def main() -> int:
    obs = Observability.enabled()
    config = Fig12Config(duration_s=0.02)
    run = run_rtt_experiment(ALL_CHECKERS, "smoke", config, obs=obs)
    print(f"fig12 smoke arm: {len(run.rtts_ms)} pings, "
          f"{run.packets_lost} lost, {obs.tracer.total} trace events")

    failures = []

    # 1. JSONL export parses.
    buffer = io.StringIO()
    count = obs.tracer.export_jsonl(buffer)
    events = []
    for lineno, line in enumerate(buffer.getvalue().splitlines(), 1):
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            failures.append(f"line {lineno} is not valid JSON: {exc}")
            break
    if count != len(events) and not failures:
        failures.append(f"export wrote {count} events, parsed {len(events)}")

    # 2. Event-stream shape.
    if not events:
        failures.append("trace is empty")
    else:
        seqs = [e["seq"] for e in events]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            failures.append("event seq is not strictly increasing")
        kinds = {e["kind"] for e in events}
        for kind in ("enqueue", "link", "parse", "apply", "deliver"):
            if kind not in kinds:
                failures.append(f"no {kind!r} events in the trace")

    # 3. Key metrics nonzero.
    dump = obs.registry.to_dict()

    def total(name: str) -> float:
        series = dump.get(name, {}).get("series", [])
        return sum(s.get("value", s.get("count", 0)) for s in series)

    for name in ("switch_packets_total", "table_lookups_total",
                 "packets_delivered_total", "codegen_ns_per_packet",
                 "phase_seconds"):
        if total(name) <= 0:
            failures.append(f"metric {name} is zero")
    if not run.rtts_ms:
        failures.append("no pings completed")

    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(f"trace smoke OK: {len(events)} events parsed, "
          f"{int(total('switch_packets_total'))} switch packets, "
          f"{int(total('packets_delivered_total'))} delivered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
