#!/usr/bin/env python3
"""The repo's one benchmark: Hydra-checked traffic, end to end and by layer.

Two ways in, one code path:

* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
  runs workload ``W`` in this process and prints, as the last line of
  standard output, one JSON object ``{correct, attempted, failed,
  metrics}`` -- the end-to-end metrics of ``BENCHMARK.json`` untraced,
  the per-layer metrics traced.
* ``python3 bench/run.py [--seed N[,N...]] [--trace] [--quick]`` runs
  every workload, each in a fresh subprocess of the form above (so peak
  RSS, import cost and engine caches never leak between workloads),
  prints every metric by name with its unit, and writes the runs to
  ``bench/out/results.json`` for ``bench/compare.py``.

The program under test is reached only through ``src/`` on ``sys.path``
(``PYTHONPATH=src`` is accepted and not needed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import harness  # noqa: E402  (bench/ is sys.path[0] for a script)


#: Workload name -> (module, function, extra arguments).  Modules are
#: imported on demand so a workload process pays only for the layers it
#: touches.
WORKLOADS = {
    "fabric_checked": ("wl_fabric", "run_workload", (True,)),
    "fabric_bare": ("wl_fabric", "run_workload", (False,)),
    "aether_soak": ("wl_aether", "run_workload", ()),
    "oracle_campaign": ("wl_oracle", "run_workload", ()),
    "fig12_rtt": ("wl_fig12", "run_workload", ()),
}


def run_one(args: argparse.Namespace, spec: dict) -> int:
    """Contract form: one workload, in this process."""
    import repro  # noqa: F401  -- import cost is part of setup_s

    run = harness.Run(args.workload, args.seed[0], args.seconds,
                      trace=bool(args.trace), quick=args.quick,
                      import_s=time.perf_counter() - _START)
    module, function, extra = WORKLOADS[args.workload]
    getattr(__import__(module), function)(run, *extra)
    if run.trace:
        run.spans.dump(os.path.join(harness.OUT_DIR,
                                    f"trace-{args.workload}.json"),
                       args.workload)
    result = run.result(spec)
    print(run.report(spec))
    detail = dict(result, workload=args.workload, extra=run.extra,
                  counts=run.counts, samples=run.samples, raw=run.raw,
                  failures=run.checks.failures)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(_detail_path(args.workload, bool(args.trace)), "w") as handle:
        json.dump(detail, handle)
    print(json.dumps(result))
    return 0


def _detail_path(workload: str, trace: bool) -> str:
    return os.path.join(harness.OUT_DIR,
                        f"result-{workload}-trace{int(trace)}.json")


def run_suite(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, one fresh subprocess each, for each seed given."""
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    ok = True
    for seed in args.seed:
        record = {"stamp": harness.stamp(seed), "quick": args.quick,
                  "seconds": args.seconds, "workloads": {}}
        for name in names:
            for trace in ([0, 1] if args.trace else [0]):
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.quick:
                    command.append("--quick")
                done = subprocess.run(command, timeout=900)
                if done.returncode != 0:
                    print(f"{name}: exited {done.returncode}",
                          file=sys.stderr)
                    ok = False
                    continue
                with open(_detail_path(name, bool(trace))) as handle:
                    detail = json.load(handle)
                ok = ok and detail["correct"]
                key = "traced" if trace else "untraced"
                record["workloads"].setdefault(name, {})[key] = detail
        runs.append(record)
        print(_summary(record, spec))
    with open(args.out, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    print(f"wrote {len(runs)} run(s) to {args.out}")
    return 0 if ok else 1


def _summary(record: dict, spec: dict) -> str:
    """One line per workload: the bounded metrics, then the same run
    under the names ISSUE 11 uses for them."""
    lines = [f"-- summary, seed {record['stamp']['seed']}, commit "
             f"{record['stamp']['commit']} --"]
    for name, detail in record["workloads"].items():
        untraced = detail.get("untraced")
        if untraced is None:
            continue
        parts = [f"{entry['name']}={untraced['metrics'][entry['name']]['value']:.4g}"
                 f" {entry['unit']}" for entry in spec["end_to_end"]]
        rate = untraced["failed"] / max(1, untraced["attempted"])
        parts.append(f"failure_rate={rate:.6f}")
        parts.extend(f"{key}={value:.4g}"
                     for key, value in untraced["extra"].items())
        lines.append(f"{name:16s} " + "  ".join(parts))
    return "\n".join(lines)


def main() -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", default=[5],
                        type=lambda s: [int(x) for x in s.split(",")],
                        help="input seed; a comma list runs the suite "
                             "once per seed (repeat a seed to repeat a run)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="sampling budget of one workload run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="every workload at ~1/20 size (for tests)")
    parser.add_argument("--out",
                        default=os.path.join(harness.OUT_DIR, "results.json"))
    args = parser.parse_args()
    # Pinned so no set or dict of strings iterates differently run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
