"""Engine benchmark: interp vs codegen packets/sec + goodput
parity, recorded to ``BENCH_throughput.json``.

Marked ``bench`` so tier-1 stays fast; run on demand with

    PYTHONPATH=src python -m pytest benchmarks/test_engine_bench.py -s
"""

import pytest

from repro.experiments import format_bench, run_bench

pytestmark = pytest.mark.bench


def test_engine_speedup_and_parity(tmp_path):
    out = tmp_path / "BENCH_throughput.json"
    result = run_bench(packets=3000, replay=True, out_path=str(out))
    print()
    print(format_bench(result))
    assert out.exists()
    assert result["engines"]["codegen"]["pps"] > 0
    assert result["engines"]["interp"]["pps"] > 0
    # The compiled engine must beat the tree-walker comfortably.
    assert result["speedups"]["codegen"] >= 2.0
    # Goodput must be engine-independent (byte-identical forwarding).
    assert result["replay_goodput"]["parity"]
