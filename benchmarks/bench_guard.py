"""Bench guard: the null-registry hot path must stay fast.

Observability is off-by-default-cheap: a switch built with the default
:data:`~repro.obs.NULL_OBS` must process packets at the same rate as
before the observability plane existed.  This guard measures the
codegen engine's packets/sec with a *null-registry* Observability handle
explicitly attached and compares it against a baseline:

* default — regenerate the baseline on this machine first
  (``measure_pps`` with no handle at all), so the comparison never
  crosses hardware; this is what CI runs.
* ``--baseline BENCH_throughput.json`` — compare against the committed
  benchmark report instead (same-machine development workflow).

Exit code 0 if the attached run is within ``--tolerance`` (default 10%)
of the baseline, 1 otherwise.

A second mode, ``--net``, guards the traffic plane: the network's batch
hot loop must replay a fig12-style campus trace strictly faster than
the event-per-packet path (both re-measured here on a short slice), and
both modes must produce identical delivery counts, bytes, and final
arrival time.  ``--net-floor-pps`` optionally also enforces an absolute
batched rate (off by default: CI machines are too variable for the
paper's 350K pps target, which ``python -m repro bench --net`` checks).

A third mode, ``--aether``, guards the control-plane scale path: a
scaled-down Aether soak (bulk attach, churn, traffic with checkers
live) must clear modest attach/s and replay-pps floors, raise zero
Hydra reports on allowed traffic, and keep per-packet cost flat
between the small-baseline probe and the full session count (the O(1)
checker-state claim).  Floors are deliberately conservative — CI
machines are too variable for the committed BENCH_aether.json numbers,
which ``python -m repro aether`` reproduces.

Usage: ``PYTHONPATH=src python benchmarks/bench_guard.py
[--net | --aether]``
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.bench import _build_switch, measure_pps
from repro.net.packet import ip, make_udp
from repro.obs import NULL_OBS
import time


def measure_null_obs_pps(packets: int, repeats: int = 3) -> float:
    """Codegen-engine pps with a null Observability handle attached —
    the instrumented construction path, the uninstrumented hot path."""
    sw = _build_switch("codegen", obs=NULL_OBS)
    assert not sw.obs.live
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    for _ in range(packets // 10):
        sw.process(packet, 1)
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(packets):
            sw.process(packet, 1)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, packets / elapsed)
    return best


def guard_net(rate_pps: float, duration_s: float,
              floor_pps: float) -> int:
    """The traffic-plane guard: batched replay must beat event replay
    on wall clock and match it exactly on observable outputs."""
    from repro.experiments.netbench import (check_equivalence,
                                            measure_replay)

    batched = measure_replay("batched", rate_pps, duration_s)
    event = measure_replay("event", rate_pps, duration_s)
    equivalence = check_equivalence(rate_pps=rate_pps,
                                    duration_s=duration_s)
    speedup = (batched["replay_pps"] / event["replay_pps"]
               if event["replay_pps"] else float("inf"))
    ok = batched["replay_pps"] > event["replay_pps"] and equivalence["ok"]
    floor_note = ""
    if floor_pps > 0:
        floor_note = f", floor {floor_pps:,.0f} pps"
        ok = ok and batched["replay_pps"] >= floor_pps
    verdict = "OK" if ok else "REGRESSION"
    print(f"bench guard (net): batched {batched['replay_pps']:,.0f} pps, "
          f"event {event['replay_pps']:,.0f} pps, speedup {speedup:.2f}x, "
          f"equivalence {'ok' if equivalence['ok'] else 'DIVERGED'}"
          f"{floor_note} -> {verdict}")
    if not equivalence["ok"]:
        print("batched and event replay diverged on "
              + ", ".join(k for k, v in equivalence.items()
                          if k.endswith("_equal") and not v),
              file=sys.stderr)
    elif not ok:
        print("the batch hot loop no longer beats the event-per-packet "
              "path; see docs/INTERNALS.md (traffic plane)",
              file=sys.stderr)
    return 0 if ok else 1


def guard_aether(sessions: int, attach_floor: float, pps_floor: float,
                 tolerance: float) -> int:
    """The control-plane scale guard: bulk attach rate, replay pps,
    zero reports on allowed traffic, and per-packet cost flatness."""
    from repro.experiments.aetherbench import (
        FLATNESS_BASELINE_SESSIONS, run_soak)

    # Baseline at the standard 10^4 probe point (the flatness claim is
    # 10^4 -> 10^6); much smaller baselines fit whole tables in cache
    # and overstate the ratio.
    baseline = max(1000, min(FLATNESS_BASELINE_SESSIONS, sessions // 2))
    result = run_soak(sessions=sessions, engine="codegen", batched=True,
                      workers=1, flatness=True,
                      baseline_sessions=baseline)
    attach_per_s = result["attach"]["per_s"]
    replay_pps = result["replay"]["pps"]
    reports = result["replay"]["reports"]
    flat = result["flatness"]
    ratio = flat["ratio"]
    floor = 1.0 + tolerance
    ok = (attach_per_s >= attach_floor and replay_pps >= pps_floor
          and reports == 0 and ratio is not None and ratio <= floor)
    verdict = "OK" if ok else "REGRESSION"
    print(f"bench guard (aether): {sessions:,} sessions, "
          f"attach {attach_per_s:,.0f}/s (floor {attach_floor:,.0f}), "
          f"replay {replay_pps:,.0f} pps (floor {pps_floor:,.0f}), "
          f"reports {reports}, per-pkt ratio {ratio:.3f} "
          f"(ceiling {floor:.2f}) -> {verdict}")
    if not ok:
        print("the Aether control-plane scale path regressed; see "
              "docs/INTERNALS.md (Aether at scale)", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=5000)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown (default 0.10)")
    parser.add_argument("--baseline", default="",
                        help="compare against this BENCH_throughput.json "
                             "instead of re-measuring on this machine")
    parser.add_argument("--net", action="store_true",
                        help="guard the traffic plane instead: batched "
                             "replay must beat event replay and match "
                             "its outputs exactly")
    parser.add_argument("--net-rate", type=float, default=100_000.0,
                        help="[--net] offered replay rate (default 1e5)")
    parser.add_argument("--net-duration", type=float, default=0.05,
                        help="[--net] simulated seconds (default 0.05)")
    parser.add_argument("--net-floor-pps", type=float, default=0.0,
                        help="[--net] also require this absolute batched "
                             "rate (default 0 = relative check only)")
    parser.add_argument("--aether", action="store_true",
                        help="guard the control-plane scale path "
                             "instead: a scaled-down Aether soak must "
                             "clear attach/s and replay-pps floors with "
                             "flat per-packet cost and zero reports")
    parser.add_argument("--aether-sessions", type=int, default=20_000,
                        help="[--aether] soak size (default 20000)")
    parser.add_argument("--aether-attach-floor", type=float,
                        default=2_000.0,
                        help="[--aether] minimum bulk attach/s "
                             "(default 2000)")
    parser.add_argument("--aether-pps-floor", type=float, default=1_000.0,
                        help="[--aether] minimum replay pps "
                             "(default 1000)")
    args = parser.parse_args(argv)

    if args.aether:
        return guard_aether(args.aether_sessions,
                            args.aether_attach_floor,
                            args.aether_pps_floor, args.tolerance)
    if args.net:
        return guard_net(args.net_rate, args.net_duration,
                         args.net_floor_pps)

    if args.baseline:
        with open(args.baseline) as handle:
            baseline_pps = json.load(handle)["engines"]["codegen"]["pps"]
        source = args.baseline
    else:
        baseline_pps = measure_pps("codegen", packets=args.packets)
        source = "same-machine remeasure"

    guarded_pps = measure_null_obs_pps(args.packets)
    ratio = guarded_pps / baseline_pps
    floor = 1.0 - args.tolerance
    verdict = "OK" if ratio >= floor else "REGRESSION"
    print(f"bench guard: baseline {baseline_pps:.0f} pps ({source}), "
          f"null-registry {guarded_pps:.0f} pps, "
          f"ratio {ratio:.3f} (floor {floor:.2f}) -> {verdict}")
    if ratio < floor:
        print("the null-observability hot path regressed beyond "
              f"{args.tolerance:.0%}; see docs/INTERNALS.md "
              "(observability plane)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
