"""Evaluation harnesses: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — LoC / stages / PHV for every checker;
* :mod:`repro.experiments.fig12` — RTT overhead (series, CDF, t-test);
* :mod:`repro.experiments.throughput` — replay throughput parity;
* :mod:`repro.experiments.bench` — interp-vs-codegen engine benchmark;
* :mod:`repro.experiments.netbench` — paper-rate traffic-plane replay
  benchmark (``python -m repro bench --net``);
* :mod:`repro.experiments.aetherbench` — million-subscriber Aether
  soak benchmark (``python -m repro aether``).
"""

from .aetherbench import (AETHER_TARGET_SESSIONS, format_aether_bench,
                          measure_baseline_cost, run_soak)
from .bench import format_bench, measure_pps, run_bench
from .fig12 import (ALL_CHECKERS, Fig12Config, Fig12Result, RttRun,
                    build_fabric, configure_checker_controls,
                    install_fabric_routes, run_fig12, run_rtt_experiment)
from .netbench import (NET_TARGET_PPS, check_equivalence, format_net_bench,
                       measure_replay, run_net_bench)
from .table1 import Table1Row, compute_row, compute_table, format_table
from .throughput import ThroughputResult, run_replay

__all__ = [
    "AETHER_TARGET_SESSIONS", "ALL_CHECKERS", "Fig12Config",
    "Fig12Result", "NET_TARGET_PPS", "RttRun", "Table1Row",
    "ThroughputResult", "build_fabric", "check_equivalence",
    "compute_row", "compute_table", "configure_checker_controls",
    "format_aether_bench", "format_bench", "format_net_bench",
    "format_table", "install_fabric_routes", "measure_baseline_cost",
    "measure_pps", "measure_replay", "run_bench", "run_fig12",
    "run_net_bench", "run_replay", "run_rtt_experiment",
    "run_soak",
]
