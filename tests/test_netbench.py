"""Net-plane benchmark tests (``repro.experiments.netbench``).

Everything runs at a tiny rate/duration — these validate the report
structure, the equivalence stamp, the history mechanics, and the CLI /
API plumbing, not the paper-rate throughput target (that is what
``python -m repro bench --net`` and ``BENCH_net.json`` are for).
"""

import json

import pytest

from repro import api
from repro.cli import main
from repro.p4 import ENGINES
from repro.experiments.netbench import (
    NET_TARGET_PPS,
    check_equivalence,
    format_net_bench,
    measure_replay,
    run_net_bench,
)

RATE = 20_000.0
DURATION = 0.01


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_replay_arm_structure():
    arm = measure_replay("batched", RATE, DURATION)
    assert arm["mode"] == "batched"
    assert arm["engine"] == "codegen"
    assert arm["offered_packets"] > 0
    assert arm["delivered_packets"] == arm["offered_packets"]
    assert arm["delivered_bytes"] > 0
    assert arm["wall_s"] > 0
    assert arm["replay_pps"] > 0
    assert arm["sim_duration_s"] >= DURATION


def test_measure_replay_modes_agree_on_outputs():
    batched = measure_replay("batched", RATE, DURATION)
    event = measure_replay("event", RATE, DURATION)
    for key in ("offered_packets", "delivered_packets", "delivered_bytes",
                "sim_duration_s"):
        assert batched[key] == event[key], key


def test_check_equivalence_ok():
    checks = check_equivalence(rate_pps=RATE, duration_s=DURATION)
    assert checks["ok"]
    assert checks["delivered_packets_equal"]
    assert checks["delivered_bytes_equal"]
    assert checks["last_arrival_equal"]
    assert checks["offered_packets_equal"]


@pytest.mark.parametrize("engine", ENGINES)
def test_check_equivalence_across_engines(engine):
    assert check_equivalence(rate_pps=RATE, duration_s=DURATION,
                             engine=engine)["ok"]


def test_run_net_bench_report_and_history(tmp_path):
    out = tmp_path / "BENCH_net.json"
    result = run_net_bench(rate_pps=RATE, duration_s=DURATION,
                           event_duration_s=DURATION, out_path=str(out))
    assert result["benchmark"] == "net_replay"
    assert result["target_pps"] == NET_TARGET_PPS
    assert set(result["modes"]) == {"batched", "event"}
    assert result["equivalence"]["ok"]
    assert isinstance(result["sustained"], bool)
    # Both profiled phases of each arm land in phase_seconds.
    for phase in ("prepare_batched", "replay_batched",
                  "prepare_event", "replay_event", "equivalence"):
        assert phase in result["phase_seconds"], phase
        assert result["phase_seconds"][phase] >= 0

    on_disk = json.loads(out.read_text())
    assert len(on_disk["history"]) == 1
    # A second run appends to the history rather than replacing it.
    again = run_net_bench(rate_pps=RATE, duration_s=DURATION,
                          event_duration_s=DURATION, out_path=str(out))
    assert len(again["history"]) == 2
    entry = again["history"][-1]
    assert entry["batched_pps"] == again["modes"]["batched"]["replay_pps"]
    assert "sustained" in entry


def test_format_net_bench_renders():
    result = run_net_bench(rate_pps=RATE, duration_s=DURATION,
                           event_duration_s=DURATION)
    text = format_net_bench(result)
    assert "net-plane replay benchmark" in text
    assert "batched" in text and "event" in text
    assert "equivalence" in text


def test_api_bench_net(tmp_path):
    out = tmp_path / "BENCH_net.json"
    result = api.bench(kind="net", rate_pps=RATE, duration_s=DURATION,
                       out=str(out))
    assert result["benchmark"] == "net_replay"
    assert result["equivalence"]["ok"]
    assert out.exists()


def test_cli_bench_net(tmp_path, capsys):
    out = tmp_path / "BENCH_net.json"
    code, stdout, _ = run_cli(capsys, "bench", "--net",
                              "--rate", str(RATE),
                              "--duration", str(DURATION),
                              "--out", str(out))
    assert "net-plane replay benchmark" in stdout
    assert out.exists()
    report = json.loads(out.read_text())
    assert report["equivalence"]["ok"]
    # Exit code reflects the 350K pps target; at this toy rate either
    # verdict is legitimate, but it must match the report.
    assert code == (0 if report["sustained"] else 1)


def test_bench_guard_net_smoke(capsys):
    import sys
    sys.path.insert(0, "benchmarks")
    try:
        from bench_guard import main as guard_main
    finally:
        sys.path.pop(0)
    code = guard_main(["--net", "--net-rate", str(RATE),
                       "--net-duration", str(DURATION)])
    out = capsys.readouterr().out
    assert "bench guard (net)" in out
    assert code in (0, 1)  # relative speed on a toy slice may flap
    assert "equivalence ok" in out
