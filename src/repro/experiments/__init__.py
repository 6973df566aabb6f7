"""Evaluation harnesses: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — LoC / stages / PHV for every checker;
* :mod:`repro.experiments.fig12` — RTT overhead (series, CDF, t-test);
* :mod:`repro.experiments.throughput` — replay throughput parity.

Timing is not measured here: the repo's one benchmark is
``python3 bench/run.py`` (see ``bench/README.md``), which drives these
modules from outside.
"""

from .fig12 import (ALL_CHECKERS, Fig12Config, Fig12Result, RttRun,
                    build_fabric, configure_checker_controls,
                    install_fabric_routes, run_fig12, run_rtt_experiment)
from .table1 import Table1Row, compute_row, compute_table, format_table
from .throughput import ThroughputResult, run_replay

__all__ = [
    "ALL_CHECKERS", "Fig12Config", "Fig12Result", "RttRun", "Table1Row",
    "ThroughputResult", "build_fabric", "compute_row", "compute_table",
    "configure_checker_controls", "format_table", "install_fabric_routes",
    "run_fig12", "run_replay", "run_rtt_experiment",
]
