#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py`` row by row.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of runs), ``B``
the candidate.  Every (end-to-end metric, workload) pair gets its own
row and one of four verdicts, by the bounds in ``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- better by more than the bound;
* ``unchanged``  -- within the bound;
* ``unresolved`` -- a side's run-to-run spread (IQR / median) is wider
  than the bound, so the runs cannot say -- unless every run of one side
  beats every run of the other, which settles it regardless of spread.

Every ratio is printed with its base.  Deterministic counts (offered,
delivered, reports, attached, verdicts, simulated RTT statistics) must
be identical between any two runs of one seed, within a file and across
the two.  Exit status 1 on any regression, any difference in an exact
count, or any rise in ``failure_rate``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "BENCHMARK.json")


def load_runs(path: str) -> List[Dict[str, Any]]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def spread(values: List[float]) -> float:
    """IQR as a share of the median -- the driver's own statistic."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """The row's verdict and B's change against A as a signed share of
    A's median, positive meaning worse."""
    base, cand = statistics.median(a), statistics.median(b)
    sign = -1.0 if better == "higher" else 1.0
    worse = sign * (cand - base) / base
    if better == "higher":
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    else:
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    noisy = max(spread(a), spread(b)) > bound
    if noisy and not (b_all_better or b_all_worse):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def _values(runs: List[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    return [run["workloads"][workload]["untraced"]["metrics"][metric]["value"]
            for run in runs if workload in run["workloads"]]


def _failure_rate(runs: List[Dict[str, Any]], workload: str) -> float:
    details = [run["workloads"][workload]["untraced"] for run in runs
               if workload in run["workloads"]]
    attempted = sum(d["attempted"] for d in details)
    return sum(d["failed"] for d in details) / attempted if attempted else 1.0


def _count_mismatches(runs: List[Dict[str, Any]], workload: str) -> List[str]:
    """Keys of ``counts`` that differ between two runs of one seed."""
    by_seed: Dict[int, Dict[str, Any]] = {}
    differing = set()
    for run in runs:
        detail = run["workloads"].get(workload)
        if detail is None:
            continue
        counts = detail["untraced"]["counts"]
        first = by_seed.setdefault(run["stamp"]["seed"], counts)
        differing.update(key for key in set(first) | set(counts)
                         if first.get(key) != counts.get(key))
    return sorted(differing)


def compare(a_runs: List[Dict[str, Any]], b_runs: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines = []
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = _values(a_runs, workload, metric["name"])
            b = _values(b_runs, workload, metric["name"])
            if not a or not b:
                lines.append(f"{workload:16s} {metric['name']:12s} missing")
                bad = True
                continue
            word, worse = verdict(a, b, metric["better"], metric["bound"])
            bad = bad or word == "regressed"
            base, cand = statistics.median(a), statistics.median(b)
            lines.append(
                f"{workload:16s} {metric['name']:12s} {word:10s} "
                f"B/A = {cand:.6g} / {base:.6g} = {cand / base:.4f} "
                f"{metric['unit']}  ({worse:+.2%} worse, bound "
                f"{metric['bound']:.0%}; spread A {spread(a):.2%} of "
                f"{len(a)}, B {spread(b):.2%} of {len(b)})")
        fail_a = _failure_rate(a_runs, workload)
        fail_b = _failure_rate(b_runs, workload)
        rose = fail_b > fail_a
        bad = bad or rose
        lines.append(f"{workload:16s} failure_rate {'ROSE' if rose else 'ok':10s} "
                     f"B/A = {fail_b:.6g} / {fail_a:.6g}")
        differing = _count_mismatches(a_runs + b_runs, workload)
        bad = bad or bool(differing)
        lines.append(f"{workload:16s} exact counts "
                     + (f"DIFFER: {', '.join(differing)}" if differing
                        else "identical for equal seeds"))
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    lines, bad = compare(load_runs(argv[1]), load_runs(argv[2]), spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
