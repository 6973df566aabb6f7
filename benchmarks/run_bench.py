#!/usr/bin/env python
"""Emit BENCH_throughput.json: packets/sec for interp vs codegen engines.

Standalone entry point (no pytest needed):

    python benchmarks/run_bench.py [--packets N] [--no-replay] [-o PATH]

Also reachable as ``python -m repro bench`` when ``src`` is on the path.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.experiments import format_bench, run_bench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=5000,
                        help="packets per timing run (default 5000)")
    parser.add_argument("--no-replay", action="store_true",
                        help="skip the campus-replay goodput parity check")
    parser.add_argument("-o", "--out", default="BENCH_throughput.json",
                        help="output path (default BENCH_throughput.json)")
    args = parser.parse_args()
    result = run_bench(packets=args.packets, replay=not args.no_replay,
                       out_path=args.out)
    print(format_bench(result))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
