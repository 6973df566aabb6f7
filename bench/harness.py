"""Measurement core shared by every workload of the benchmark.

One :class:`Run` per workload process.  It owns the four things every
workload needs and nothing else: set-up accounting (``setup_s``), the
sampling policy (a fixed minimum of fixed-size samples, then more until
``--seconds`` is spent), the correctness ledger (``attempted`` /
``failed``), and the span recorder of the traced run.

Policy stated once, here:

* every timing is taken in *reference seconds*: wall seconds scaled by
  the host's speed while the timing ran (:class:`HostSpeed`), because
  this class of host slows by up to 2x for seconds to minutes at a time
  when its neighbours are busy, which no statistic over wall times
  survives;
* a rate is the sum over slices of the median over trials of that
  slice's timing; per-trial median, min, IQR and count are printed too;
* warm-up: each workload replays one short slice on a throw-away
  deployment before its first timed sample (the same pass that feeds
  the reference comparison), so import-time and first-call laziness is
  never inside ``ops_per_s`` -- while ``setup_s`` keeps every cost a
  user pays on each run (import, compile, deploy, configure, trace
  materialisation);
* the garbage collector stays at its defaults, because users run with it.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import time
import zlib
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

clock = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: The engine every workload passes explicitly (never the default).
ENGINE = "codegen"
#: The independent reference the timed path is compared against.
REFERENCE_ENGINE = "interp"
#: Layers are the package names under ``src/repro``.
LAYERS = ("p4", "net", "runtime", "compiler", "workloads", "aether",
          "difftest")


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, min, inter-quartile range and count of one sample set."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {"median": statistics.median(values), "min": min(values),
            "iqr": iqr, "n": len(values)}


def typical(trials: Sequence[Sequence[float]]) -> List[float]:
    """Per slice, the median over trials.  Every trial runs the same
    slices on the same inputs, so a pause that lands in one trial of a
    slice cannot move that slice's value, nor the sum over slices."""
    return [statistics.median(column) for column in zip(*trials)]


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def digest(inputs: Any) -> int:
    """A fingerprint of generated inputs, kept among the exact counts so
    two runs of one seed can be shown to have run the same inputs (and
    two seeds different ones)."""
    return zlib.crc32(repr(inputs).encode())


#: Wall seconds :func:`reference_loop` takes on the quiet host the
#: workloads were sized on (2-core 2.1 GHz Xeon guest, CPython 3.11).
#: Only fixes the scale: on such a host a reference second is a second.
REFERENCE_LOOP_S = 2.2e-3


def reference_loop() -> float:
    """A fixed piece of interpreter-bound work that touches nothing of
    the program under test; returns the wall it took."""
    start = clock()
    total = 0
    table = {}
    for i in range(20000):
        total += i * i % 7
        table[i & 255] = (i, total)
    return clock() - start


class HostSpeed:
    """How fast the host is running right now, from outside the program.

    The guest shares its cores with other guests: the same code runs up
    to 2x slower for seconds to minutes at a time.  The slowdown of
    :func:`reference_loop` tracks the slowdown of the workloads (README,
    "Reference seconds, and noise": run-to-run spread 5-19 % in wall
    seconds, 2-7 % scaled), so each timing is bracketed by two runs of
    it and scaled by their mean.
    """

    def __init__(self) -> None:
        self._last = (-1.0, 0.0)       # (when it ended, what it took)

    def probe(self) -> float:
        took = reference_loop()
        self._last = (clock(), took)
        return took

    def probe_before(self) -> float:
        """The probe that ended just now, if one did, else a new one."""
        ended, took = self._last
        return took if clock() - ended < 0.005 else self.probe()


class Seconds(float):
    """A timing in reference seconds that remembers the wall it was
    measured as and the host speed it was scaled by (1.0 is the nominal
    host), so result files carry both."""

    def __new__(cls, wall: float, speed: float) -> "Seconds":
        self = super().__new__(cls, wall * speed)
        self.wall = wall
        self.speed = speed
        return self


class Watch:
    """One timed region; ``seconds`` is set when the region ends."""

    seconds = Seconds(0.0, 1.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def stamp(seed: int) -> Dict[str, Any]:
    """Provenance carried by every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"commit": commit or "unknown", "seed": seed,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "hashseed": os.environ.get("PYTHONHASHSEED", "random")}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced run.

    A row is ``[name, start, end, parent_index, count]``; the layer of a
    span is the part of its name before the first dot.  Nothing is
    written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = [-1]
        self._patched: List[tuple] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = [name, clock(), 0.0, self._stack[-1], 1]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = clock()
            self._stack.pop()

    def shim(self, cls: type, attr: str, name: str,
             count: Optional[Callable[[tuple], int]] = None) -> None:
        """Replace public method ``cls.attr`` with a timing wrapper that
        records a child span of whatever span is open when it is called.
        ``count`` maps the call's positional arguments to the number of
        items the call carries (batch calls)."""
        inner = getattr(cls, attr)
        rows, stack = self.rows, self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            row = [name, clock(), 0.0, stack[-1],
                   1 if count is None else count(args)]
            stack.append(len(rows))
            rows.append(row)
            try:
                return inner(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        timed.__wrapped__ = inner  # type: ignore[attr-defined]
        setattr(cls, attr, timed)
        self._patched.append((cls, attr, inner))

    def unshim(self) -> None:
        while self._patched:
            cls, attr, inner = self._patched.pop()
            setattr(cls, attr, inner)

    def layer_seconds(self, root: int) -> Dict[str, float]:
        """Self time per layer under span ``root``: a span's self time is
        its duration minus its direct children's.  The root's own self
        time is the residual -- wall no span accounts for."""
        rows = self.rows
        children = [0.0] * len(rows)
        inside = [False] * len(rows)
        inside[root] = True
        for i in range(root + 1, len(rows)):
            parent = rows[i][3]
            if parent >= root and inside[parent]:
                inside[i] = True
                children[parent] += rows[i][2] - rows[i][1]
        layers: Dict[str, float] = {}
        for i in range(root + 1, len(rows)):
            if inside[i]:
                layer = rows[i][0].split(".", 1)[0]
                layers[layer] = (layers.get(layer, 0.0)
                                 + rows[i][2] - rows[i][1] - children[i])
        layers["residual"] = rows[root][2] - rows[root][1] - children[root]
        return layers

    def self_seconds(self, name: str) -> float:
        """Self time of the last span called ``name``."""
        index = max(i for i, row in enumerate(self.rows) if row[0] == name)
        row = self.rows[index]
        return row[2] - row[1] - sum(
            child[2] - child[1] for child in self.rows[index + 1:]
            if child[3] == index)

    def dump(self, path: str, workload: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"workload": workload,
                       "columns": ["name", "start", "end", "parent",
                                   "count"],
                       "spans": self.rows}, handle)


class NullSpans:
    """The untraced run: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


def install_shims(spans: Spans) -> None:
    """Class-level timing shims on public methods only, installed from
    here -- nothing in ``src/`` knows the benchmark exists.  ``p4`` busy
    time shows up as child spans of whichever driver span is open."""
    from repro.net.simulator import Host
    from repro.p4.bmv2 import Bmv2Switch
    from repro.runtime.deployment import HydraDeployment

    # The two constructors matter where the workload builds deployments
    # inside a call the benchmark cannot open (api.run_scenario).
    spans.shim(HydraDeployment, "__init__", "runtime.HydraDeployment")
    spans.shim(Bmv2Switch, "__init__", "p4.Bmv2Switch")
    spans.shim(Bmv2Switch, "process", "p4.process")
    spans.shim(Bmv2Switch, "process_batch", "p4.process_batch",
               count=lambda args: len(args[1]))
    spans.shim(Bmv2Switch, "insert_entry", "p4.insert_entry")
    spans.shim(Bmv2Switch, "insert_entries", "p4.insert_entries",
               count=lambda args: len(args[2]))
    spans.shim(Bmv2Switch, "delete_entries", "p4.delete_entries",
               count=lambda args: len(args[2]))
    spans.shim(Bmv2Switch, "set_default_action", "p4.set_default_action")
    # Host.deliver's own work is three counter bumps; the rest of the
    # span is the rx callbacks, which live in repro.workloads.traffic.
    spans.shim(Host, "deliver", "workloads.host_rx")


# ---------------------------------------------------------------------------
# Correctness ledger
# ---------------------------------------------------------------------------

class Checks:
    """Operations attempted and failed; every gate feeds it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def expect(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    def equal(self, got: Any, want: Any, what: str) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.failures.append(f"{what}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

class Run:
    """Everything one workload process accumulates."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool, import_s: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.checks = Checks()
        self.spans: Any = Spans() if trace else NullSpans()
        self.host = HostSpeed()
        self.wall_total = 0.0           # of everything timed, as measured
        self.seconds_total = 0.0        # the same, in reference seconds
        # import_s was taken before anything could probe the host.
        self.setup_once = import_s * REFERENCE_LOOP_S / self.host.probe()
        self.setup_trials: List[float] = []
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.counts: Dict[str, Any] = {}
        self.samples: Dict[str, Dict[str, float]] = {}
        self.raw: List[List[Tuple[float, float]]] = []
        self.table = ""
        self._loop_start: Optional[float] = None
        self.rss_mb: Optional[float] = None

    def size(self, full: int, quick: int) -> int:
        return quick if self.quick else full

    # -- timing ------------------------------------------------------------

    @contextmanager
    def stopwatch(self) -> Iterator["Watch"]:
        """Times its body; on exit the yielded :class:`Watch` is set."""
        watch = Watch()
        before = self.host.probe_before()
        start = clock()
        try:
            yield watch
        finally:
            wall = clock() - start
            watch.seconds = Seconds(wall, 2.0 * REFERENCE_LOOP_S
                                    / (before + self.host.probe()))
            self.wall_total += wall
            self.seconds_total += watch.seconds

    def timed(self, fn: Callable[..., Any], *args: Any
              ) -> Tuple[Any, Seconds]:
        """``fn(*args)`` and how long it took, in reference seconds."""
        with self.stopwatch() as watch:
            result = fn(*args)
        return result, watch.seconds

    def run_sliced(self, network: Any, first: float, last: float,
                   slices: int) -> List[Seconds]:
        """``network.run()`` in ``slices`` equal spans of virtual time
        from ``first`` to ``last``, the last span running to idle; one
        timing per span."""
        timings = []
        for k in range(1, slices + 1):
            until = (first + (last - first) * k / slices
                     if k < slices else None)
            timings.append(self.timed(network.run, until)[1])
        return timings

    # -- set-up accounting -------------------------------------------------

    @contextmanager
    def setup(self, span: str) -> Iterator[None]:
        """Set-up paid once per run."""
        with self.stopwatch() as watch, self.spans.span(span):
            yield
        self.setup_once += watch.seconds

    @contextmanager
    def trial_setup(self) -> Iterator[None]:
        """Set-up paid again by every trial (a fresh deployment); the
        run reports the median, so ``setup_s`` is set up several times
        per run where the workload allows it."""
        with self.stopwatch() as watch:
            yield
        self.setup_trials.append(watch.seconds)

    @property
    def setup_s(self) -> float:
        per_trial = (statistics.median(self.setup_trials)
                     if self.setup_trials else 0.0)
        return self.setup_once + per_trial

    # -- sampling policy ---------------------------------------------------

    def more(self, done: int, minimum: int) -> bool:
        """Take at least ``minimum`` samples, then keep sampling until
        ``--seconds`` of wall has gone into the sampling loop.  Peak RSS
        is read when the minimum is done, so it belongs to a fixed
        amount of work whatever the host's speed lets the budget add.
        The traced run and ``--quick`` take two: the traced run only
        needs the base of ``bench.trace_overhead_ratio``, which is the
        last (warm) one."""
        if self._loop_start is None:
            self._loop_start = clock()
        if self.trace or self.quick:
            minimum = 2
        if done < minimum:
            return True
        if self.rss_mb is None:
            self.rss_mb = peak_rss_mb()
        return (not (self.trace or self.quick)
                and clock() - self._loop_start < self.seconds)

    @contextmanager
    def traced(self) -> Iterator[None]:
        """In the traced run: shims on, and one ``bench.traced`` root
        span whose descendants make the layer table.  Entered around
        set-up and around the traced sample, never around gates."""
        if not self.trace:
            yield
            return
        install_shims(self.spans)
        try:
            with self.spans.span("bench.traced"):
                yield
        finally:
            self.spans.unshim()

    def throughput(self, ops: int, trials: Sequence[Sequence[Seconds]]
                   ) -> float:
        """Ops per reference second from ``trials[t][k]``, the timing of
        slice ``k`` in trial ``t``.  Per-trial rates are kept beside it,
        and the wall and host speed behind every timing."""
        self.samples["ops_per_s"] = summarize(
            [ops / sum(timings) for timings in trials])
        self.raw = [[(t.wall, t.speed) for t in timings]
                    for timings in trials]
        return ops / sum(typical(trials))

    # -- layer table ---------------------------------------------------------

    def layer_table(self, ops: int) -> None:
        """Self time per layer, summed over every ``bench.traced`` root
        of the run.  Rows plus the residual sum to the traced wall by
        construction; the residual is stated, not hidden."""
        spans = self.spans
        totals: Dict[str, float] = {}
        wall = 0.0
        for index, row in enumerate(spans.rows):
            if row[0] == "bench.traced" and row[3] == -1:
                wall += row[2] - row[1]
                for layer, seconds in spans.layer_seconds(index).items():
                    totals[layer] = totals.get(layer, 0.0) + seconds
        lines = [f"  layer table, traced wall {wall:.3f} s "
                 f"({ops} ops in the traced sample)"]
        for layer in LAYERS + ("residual",):
            seconds = totals.pop(layer, 0.0)
            share = 100.0 * seconds / wall
            name = ("bench.residual_pct" if layer == "residual"
                    else f"{layer}.share_pct")
            self.metrics[name] = share
            lines.append(f"    {layer:10s} {seconds:>9.4f} s {share:>6.2f} %")
        if totals:
            raise KeyError(f"spans of unknown layers: {sorted(totals)}")
        self.metrics["bench.traced_wall_s"] = wall
        self.table = "\n".join(lines)

    # -- results -------------------------------------------------------------

    def finish(self, ops_per_s: float) -> None:
        self.metrics["ops_per_s"] = ops_per_s
        self.metrics["setup_s"] = self.setup_s
        self.metrics["peak_rss_mb"] = self.rss_mb
        # What the host was doing meanwhile, and the same rate in plain
        # wall seconds: 1.0 is the nominal host, 0.7 one running 30 % slow.
        speed = self.seconds_total / self.wall_total
        self.metrics["bench.host_speed"] = speed
        self.extra["ops_per_wall_s"] = ops_per_s * speed

    def result(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """The contract's result object for this run."""
        wanted = spec["per_layer"] if self.trace else spec["end_to_end"]
        metrics = {}
        for entry in wanted:
            if entry["name"] not in self.metrics:
                raise KeyError(f"workload {self.workload} did not measure "
                               f"{entry['name']}")
            metrics[entry["name"]] = {"value": self.metrics[entry["name"]],
                                      "unit": entry["unit"]}
        return {"correct": self.checks.failed == 0,
                "attempted": self.checks.attempted,
                "failed": self.checks.failed, "metrics": metrics}

    def report(self, spec: Dict[str, Any]) -> str:
        """Every metric by name with its unit, for a person."""
        units = {e["name"]: e["unit"]
                 for e in spec["end_to_end"] + spec["per_layer"]}
        lines = [f"== {self.workload} (seed {self.seed}, "
                 f"{'traced' if self.trace else 'untraced'}) =="]
        for name, value in self.metrics.items():
            line = f"  {name:34s} {value:>14.4f} {units.get(name, '')}"
            spread = self.samples.get(name)
            if spread:
                line += (f"   (median of {spread['n']}, "
                         f"min {spread['min']:.4f}, "
                         f"IQR {spread['iqr']:.4f})")
            lines.append(line)
        for name, value in self.extra.items():
            lines.append(f"  {name:34s} {value:>14.4f}")
        rate = (self.checks.failed / self.checks.attempted
                if self.checks.attempted else 1.0)
        lines.append(f"  {'failure_rate':34s} {rate:>14.6f}   "
                     f"({self.checks.failed} of {self.checks.attempted})")
        for failure in self.checks.failures:
            lines.append(f"  FAILED {failure}")
        for name, value in self.counts.items():
            lines.append(f"  count {name} = {value}")
        if self.table:
            lines.append(self.table)
        return "\n".join(lines)
