"""Engine benchmark: packets/sec for interp and codegen, goodput parity.

Measures the raw ``Bmv2Switch.process`` forwarding rate of a single
linked switch (the same setup as ``benchmarks/test_throughput.py``'s
``test_switch_processing_rate``) under both execution engines, and the
campus-replay goodput under each engine as a parity check.  Results are
written as ``BENCH_throughput.json``; every write appends the run's
summary to the report's ``history`` list (keyed by commit + timestamp)
so the packets/sec trajectory across PRs survives each overwrite.

Entry points: ``python benchmarks/run_bench.py`` or
``python -m repro bench``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from datetime import datetime, timezone
from typing import Any, Dict, Optional, Sequence

from ..compiler import compile_program, standalone_program
from ..net.packet import ip, make_udp
from ..obs import MetricsRegistry, Observability
from ..p4 import ENGINES
from ..p4.bmv2 import Bmv2Switch
from ..properties import load_source
from .throughput import run_replay

def _build_switch(engine: str,
                  obs: Optional[Observability] = None,
                  optimize: bool = False) -> Bmv2Switch:
    compiled = compile_program(load_source("loops"), name="loops",
                               optimize=optimize)
    program = standalone_program(compiled)
    sw = Bmv2Switch(program, name="s1", engine=engine, obs=obs)
    sw.insert_entry("fwd_table", [1], "fwd_set_egress", [2])
    sw.insert_entry(compiled.inject_table, [1], compiled.mark_first_action)
    sw.insert_entry(compiled.strip_table, [2], compiled.mark_last_action)
    return sw


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def bench_meta() -> Dict[str, Any]:
    """Provenance stamp: which code produced these numbers, when, where."""
    return {
        "commit": _git_commit(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def metered_snapshot(packets: int = 2000) -> Dict[str, Any]:
    """A short metered run of the codegen engine with a *live* registry:
    the metrics snapshot stamped into the benchmark report.  The timed
    measurement itself always runs with the null registry — this run is
    separate, so observability cost never leaks into the pps numbers."""
    registry = MetricsRegistry()
    sw = _build_switch("codegen", obs=Observability(registry=registry))
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    for _ in range(packets):
        sw.process(packet, 1)
    dump = registry.to_dict()
    series = dump.get("table_lookups_total", {}).get("series", [])
    hits = sum(s["value"] for s in series
               if s["labels"].get("result") == "hit")
    total = sum(s["value"] for s in series)
    ns_series = dump.get("codegen_ns_per_packet", {}).get("series", [])
    return {
        "packets": packets,
        "table_lookups_total": total,
        "table_hit_ratio": round(hits / total, 4) if total else None,
        "codegen_ns_per_packet_mean":
            round(ns_series[0]["mean"], 1) if ns_series else None,
        "switch_packets_dropped_total": sum(
            s["value"] for s in
            dump.get("switch_packets_dropped_total", {}).get("series", [])),
    }


def measure_pps(engine: str, packets: int = 5000, warmup: int = 500,
                repeats: int = 3, optimize: bool = False) -> float:
    """Best-of-N packets/sec through one linked switch."""
    if packets < 1:
        raise ValueError("packets must be >= 1, got %d" % packets)
    sw = _build_switch(engine, optimize=optimize)
    packet = make_udp(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 2)
    for _ in range(warmup):
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


def _replay_goodput(engine: str) -> Dict[str, Any]:
    """One engine's campus-replay goodput entry (module-level so the
    worker-pool path can pickle it)."""
    r = run_replay(["loops"], engine, rate_pps=5000,
                   duration_s=0.05, engine=engine)
    return {"goodput_bps": round(r.goodput_bps, 1),
            "delivery_ratio": round(r.delivery_ratio, 4)}


def _history_entry(result: Dict[str, Any]) -> Dict[str, Any]:
    """The compact per-run record appended to the report's history."""
    return {
        "commit": result["meta"].get("commit"),
        "timestamp": result["meta"].get("timestamp"),
        "optimize": result.get("optimize", False),
        "engines": {name: stats["pps"]
                    for name, stats in result["engines"].items()},
        "speedups": dict(result.get("speedups", {})),
    }


def load_history(out_path: str) -> list:
    """The history list of an existing report (empty when the file is
    missing, unreadable, or predates history tracking)."""
    try:
        with open(out_path) as handle:
            prior = json.load(handle)
    except (OSError, ValueError):
        return []
    history = prior.get("history", [])
    if not isinstance(history, list):
        return []
    if not history and "engines" in prior and "meta" in prior:
        # Pre-history report: fold its single run in so the first
        # history-aware write does not lose the recorded trajectory.
        try:
            history = [_history_entry(prior)]
        except (KeyError, TypeError):
            history = []
    return history


def run_bench(packets: int = 5000, replay: bool = True,
              out_path: Optional[str] = None,
              workers: int = 1, optimize: bool = False,
              engines: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """The full benchmark; optionally writes the JSON report.

    ``workers > 1`` offloads the *side* tasks — the replay parity check
    and the metered metrics snapshot — to a process pool while this
    process runs the timed pps loops undisturbed.  The timing itself is
    never parallelized: co-scheduling CPU-bound workers alongside a
    wall-clock measurement would distort the numbers the bench guard
    defends.  The replay and snapshot are deterministic-in-content, so
    the report is the same either way (timing fields aside).

    ``engines`` restricts which engines are timed (default both).
    Writing to ``out_path`` appends this run to the report's
    ``history`` list (prior runs are carried over from the existing
    file), so overwriting the report never loses the pps trajectory.
    """
    engines = tuple(engines) if engines else ENGINES
    result: Dict[str, Any] = {"benchmark": "switch_processing_rate",
                              "program": "loops (linked standalone)",
                              "meta": bench_meta(),
                              # Timed runs use the default null registry:
                              # the pps numbers measure the unobserved
                              # hot path (what the bench guard defends).
                              "observability": "null registry (off)",
                              "workers": max(1, workers),
                              "optimize": optimize,
                              "engines": {}}
    pool = None
    snapshot_async = None
    replay_async: Dict[str, Any] = {}
    if workers > 1:
        import multiprocessing

        pool = multiprocessing.get_context().Pool(
            processes=min(workers, 1 + len(engines)))
        snapshot_async = pool.apply_async(metered_snapshot)
        if replay:
            replay_async = {engine: pool.apply_async(_replay_goodput,
                                                     (engine,))
                            for engine in engines}
    try:
        for engine in engines:
            pps = measure_pps(engine, packets=packets, optimize=optimize)
            result["engines"][engine] = {
                "pps": round(pps, 1),
                "us_per_packet": round(1e6 / pps, 2)}
        if snapshot_async is not None:
            result["metrics_snapshot"] = snapshot_async.get()
        else:
            result["metrics_snapshot"] = metered_snapshot()
        interp_pps = result["engines"].get("interp", {}).get("pps")
        speedups: Dict[str, float] = {}
        if interp_pps:
            for engine in engines:
                if engine != "interp":
                    speedups[engine] = round(
                        result["engines"][engine]["pps"] / interp_pps, 2)
        result["speedups"] = speedups
        if replay:
            goodput: Dict[str, Any] = {}
            for engine in engines:
                if engine in replay_async:
                    goodput[engine] = replay_async[engine].get()
                else:
                    goodput[engine] = _replay_goodput(engine)
            values = {goodput[e]["goodput_bps"] for e in engines}
            goodput["parity"] = len(values) == 1
            result["replay_goodput"] = goodput
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    if out_path:
        history = load_history(out_path)
        history.append(_history_entry(result))
        result["history"] = history
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
    return result


def format_bench(result: Dict[str, Any]) -> str:
    lines = [f"engine benchmark — {result['program']}"]
    for engine, stats in result["engines"].items():
        lines.append(f"  {engine:13s} {stats['pps']:10.0f} pps  "
                     f"({stats['us_per_packet']:.1f} us/pkt)")
    for engine, ratio in result.get("speedups", {}).items():
        lines.append(f"  speedup {ratio:6.2f}x ({engine} vs interp)")
    goodput = result.get("replay_goodput")
    if goodput:
        for engine in result["engines"]:
            stats = goodput[engine]
            lines.append(
                f"  replay {engine:7s} goodput="
                f"{stats['goodput_bps'] / 1e6:8.1f} Mb/s "
                f"delivery={stats['delivery_ratio']:.3f}")
        lines.append("  goodput parity: "
                     + ("OK" if goodput["parity"] else "MISMATCH"))
    history = result.get("history")
    if history:
        lines.append(f"  history: {len(history)} recorded run(s)")
    return "\n".join(lines)
