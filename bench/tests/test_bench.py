"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` stays
``tests``); run them explicitly::

    python -m pytest bench/tests -q

They drive ``bench/run.py --quick`` (every workload at ~1/20 size, two
samples each) as subprocesses, exactly as a user or the driver would,
and take a couple of minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, BENCH)
import compare  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _suite(tmp_path_factory, seeds: str, trace: bool) -> list:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    command = [sys.executable, RUN, "--quick", "--seed", seeds,
               "--out", str(out)]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return compare.load_runs(str(out))


@pytest.fixture(scope="module")
def same_seed(tmp_path_factory) -> list:
    """Two full quick runs of one seed, untraced and traced."""
    return _suite(tmp_path_factory, "5,5", trace=True)


@pytest.fixture(scope="module")
def other_seed(tmp_path_factory) -> list:
    return _suite(tmp_path_factory, "6", trace=False)


def test_benchmark_json_meets_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_contract_line_of_one_workload():
    """The driver's form: the last line of stdout is the result object
    with exactly the contract's keys and every end-to-end metric."""
    spec = _spec()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "fabric_bare", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_every_workload_reports_every_metric(same_seed):
    spec = _spec()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for run in same_seed:
        assert set(run["workloads"]) == {w["name"] for w in spec["workloads"]}
        assert {"commit", "seed", "python", "platform", "nproc"} \
            <= set(run["stamp"])
        for name, detail in run["workloads"].items():
            assert set(detail["untraced"]["metrics"]) == e2e, name
            assert set(detail["traced"]["metrics"]) == layers, name
            for mode in ("untraced", "traced"):
                assert detail[mode]["correct"], detail[mode]["failures"]
                assert detail[mode]["samples"]["ops_per_s"]["n"] >= 1
                for key in list(detail[mode]["extra"]) \
                        + list(detail[mode]["counts"]):
                    assert NAME.match(key), key


def test_layer_table_sums_to_the_traced_wall(same_seed):
    shares = ["p4.share_pct", "net.share_pct", "runtime.share_pct",
              "compiler.share_pct", "workloads.share_pct",
              "aether.share_pct", "difftest.share_pct",
              "bench.residual_pct"]
    for name, detail in same_seed[0]["workloads"].items():
        metrics = detail["traced"]["metrics"]
        total = sum(metrics[share]["value"] for share in shares)
        assert total == pytest.approx(100.0, abs=1e-6), name
        assert metrics["bench.residual_pct"]["value"] <= 10.0, name
        assert metrics["bench.trace_overhead_ratio"]["value"] > 0


def test_same_seed_repeats_every_deterministic_count(same_seed):
    first, second = same_seed
    for name in first["workloads"]:
        for mode in ("untraced", "traced"):
            assert first["workloads"][name][mode]["counts"] \
                == second["workloads"][name][mode]["counts"], (name, mode)
            assert first["workloads"][name][mode]["attempted"] \
                == second["workloads"][name][mode]["attempted"]
        lines = [run["workloads"][name]["traced"]["metrics"]
                 ["p4.codegen_src_lines"]["value"] for run in same_seed]
        assert lines[0] == lines[1]
    rtt = first["workloads"]["fig12_rtt"]["untraced"]["counts"]
    assert rtt["sim_rtt_mean_us"] > 0 and "sim_rtt_overhead_pct" in rtt


def test_another_seed_changes_inputs_and_still_passes(same_seed, other_seed):
    base = same_seed[0]["workloads"]
    for name, detail in other_seed[0]["workloads"].items():
        assert detail["untraced"]["correct"], detail["untraced"]["failures"]
        mine = detail["untraced"]["counts"]
        theirs = base[name]["untraced"]["counts"]
        key = ("sim_rtt_mean_us" if name == "fig12_rtt" else "input_digest")
        assert mine[key] != theirs[key], name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: non-zero exit and no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fabric_bare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- compare.py -------------------------------------------------------------

def _runs(values, failed=0, counts=None, seed=5):
    return [{"stamp": {"seed": seed},
             "workloads": {"w": {"untraced": {
                 "metrics": {"ops_per_s": {"value": v, "unit": "1/s"}},
                 "attempted": 100, "failed": failed,
                 "counts": counts or {"offered": 7}}}}}
            for v in values]


SPEC = {"workloads": [{"name": "w", "why": ""}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s",
                        "better": "higher", "bound": 0.1}]}


@pytest.mark.parametrize("a, b, word", [
    ([100, 101, 99, 100, 102], [100, 100, 101, 99, 100], "unchanged"),
    ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "regressed"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "improved"),
    ([100, 130, 70, 100, 95], [90, 125, 75, 99, 96], "unresolved"),
    ([100, 130, 70, 100, 95], [200, 230, 170, 200, 195], "improved"),
])
def test_compare_verdicts(a, b, word):
    lines, bad = compare.compare(_runs(a), _runs(b), SPEC)
    assert word in lines[0]
    assert bad == (word == "regressed")


def test_compare_flags_failures_and_count_drift():
    base = _runs([100, 100])
    _, bad = compare.compare(base, _runs([100, 100], failed=1), SPEC)
    assert bad
    lines, bad = compare.compare(
        base, _runs([100, 100], counts={"offered": 8}), SPEC)
    assert bad and any("DIFFER: offered" in line for line in lines)
    _, bad = compare.compare(
        base, _runs([100, 100], counts={"offered": 8}, seed=6), SPEC)
    assert not bad
