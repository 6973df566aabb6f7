"""The stable public API facade.

Everything a script, notebook, or downstream harness needs lives here
behind a small set of verbs with uniform keyword arguments:

* :func:`compile_indus` — Indus source (or a bundled property name, or
  a ``.indus`` path) to a compiled checker;
* :func:`lint`         — dataflow diagnostics over a compiled checker
  (``repro lint`` is this verb on the command line);
* :func:`deploy`       — a compiled checker onto a topology (or a
  difftest scenario) as a running :class:`~repro.runtime.deployment.
  HydraDeployment`;
* :func:`run_scenario` — one differential-oracle scenario, end to end;
* :func:`difftest`     — a whole oracle campaign, serial or sharded;
* :func:`bench`        — the benchmark dispatcher:
  ``kind="engine"`` (interp/codegen pps), ``kind="net"``
  (paper-rate traffic-plane replay), ``kind="aether"`` (the
  million-subscriber soak);
* :func:`aether`       — the Aether soak with full control over scale,
  churn, and sharding (``repro aether`` on the command line);
* :func:`generated_source` — the codegen engine's generated Python
  source for a pipeline (``repro dump-src`` is this verb on the
  command line).

Benchmark verbs return typed result objects — :class:`BenchResult`
(engine/net kinds) and :class:`SoakResult` (aether) — that *are* the
plain report dict (every existing key access keeps working) plus typed
accessors and JSON round-tripping.  :class:`DifftestSummary` is
re-exported here so downstream type hints never import internal
modules.

Uniform keywords across the verbs, always keyword-only:

* ``engine=``  — switch execution engine, one of
  :data:`repro.p4.ENGINES`: ``"codegen"`` (generated source; the
  default) or ``"interp"`` (the reference tree-walker);
* ``obs=``     — an :class:`~repro.obs.Observability` handle (metrics
  registry + tracer) threaded through every layer; fleet runs merge
  worker registries into it;
* ``seed=``    — the deterministic seed.  Scenarios are pure functions
  of their seed, so equal seeds mean equal behavior — including across
  worker counts;
* ``workers=`` — process fan-out where the verb supports it
  (:mod:`repro.parallel`); ``1`` means serial, in-process.

Stability promise: these signatures are the compatibility surface
the CLI, the experiment harnesses, and the tests are written against.
Internal modules (``repro.difftest.harness``, ``repro.parallel.runner``,
…) may reshuffle between releases; this module will not.

Heavyweight subsystems are imported lazily inside each function so that
``import repro`` stays cheap and cycle-free.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = ["BenchResult", "DifftestSummary", "SoakResult", "aether",
           "bench", "compile_indus", "deploy", "difftest",
           "generated_source", "lint", "run_scenario"]

BENCH_KINDS = ("engine", "net", "aether")

_KIND_BY_BENCHMARK = {
    "switch_processing_rate": "engine",
    "net_replay": "net",
    "aether_soak": "aether",
}


class _ReportDict(dict):
    """A benchmark report: the plain JSON-ready dict the harnesses
    produce, with typed accessors layered on top.  Subclassing dict
    keeps every pre-existing ``result["..."]`` access working."""

    kind: str = "engine"

    @property
    def meta(self) -> Dict[str, Any]:
        """Provenance stamp: commit, timestamp, python, platform."""
        return self.get("meta", {})

    @property
    def history(self) -> List[Dict[str, Any]]:
        """Per-run records carried across report overwrites."""
        return self.get("history", [])

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self, indent=indent)


class BenchResult(_ReportDict):
    """An engine- or net-kind benchmark report (see :func:`bench`)."""

    def __init__(self, data: Any = (), kind: str = "engine"):
        super().__init__(data)
        self.kind = kind

    @property
    def engines(self) -> Dict[str, Any]:
        """Per-engine stats (engine kind; empty for net)."""
        return self.get("engines", {})

    @property
    def speedups(self) -> Dict[str, float]:
        return self.get("speedups", {})

    @property
    def sustained(self) -> Optional[bool]:
        """Net kind: offered rate sustained against the paper target."""
        return self.get("sustained")

    @classmethod
    def from_json(cls, text: str) -> "BenchResult":
        data = json.loads(text)
        return cls(data, kind=_KIND_BY_BENCHMARK.get(
            data.get("benchmark"), "engine"))


class SoakResult(_ReportDict):
    """An Aether soak report (see :func:`aether`)."""

    kind = "aether"

    @property
    def sessions(self) -> int:
        """Target concurrent session count of the soak."""
        return self.get("sessions", {}).get("target", 0)

    @property
    def attach_per_s(self) -> float:
        return self.get("attach", {}).get("per_s", 0.0)

    @property
    def attach_p99_us(self) -> float:
        return self.get("attach", {}).get("p99_us", 0.0)

    @property
    def replay_pps(self) -> float:
        return self.get("replay", {}).get("pps", 0.0)

    @property
    def reports(self) -> int:
        """Hydra reports raised during the replay phase."""
        return self.get("replay", {}).get("reports", 0)

    @property
    def peak_rss_bytes(self) -> int:
        return self.get("peak_rss_bytes", 0)

    @property
    def flat(self) -> Optional[bool]:
        """Per-packet cost at full scale within tolerance of the
        small-baseline probe (None when flatness was not measured)."""
        return self.get("flatness", {}).get("flat")

    @property
    def phase_seconds(self) -> Dict[str, float]:
        return self.get("phase_seconds", {})

    @classmethod
    def from_json(cls, text: str) -> "SoakResult":
        return cls(json.loads(text))


def __getattr__(name: str) -> Any:
    # DifftestSummary re-exports lazily: `import repro` must stay cheap,
    # and the difftest package pulls in the whole harness.
    if name == "DifftestSummary":
        from .difftest import DifftestSummary

        return DifftestSummary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def compile_indus(program: str, *, name: Optional[str] = None,
                  optimize: bool = False) -> Any:
    """Compile an Indus checker to P4.

    ``program`` may be a bundled property name (``"loops"``, see
    ``python -m repro properties``), a path to an ``.indus`` file, or
    Indus source text itself.  ``optimize=True`` runs the dataflow
    optimizer (dead code/table/register elimination, constant folding,
    scratch-field coalescing — behaviorally identical, validated by the
    differential oracle).  Returns the
    :class:`~repro.compiler.codegen.CompiledChecker` that
    :func:`deploy` consumes.
    """
    from .compiler import compile_program
    from .properties import PROPERTIES, load_source

    if program in PROPERTIES:
        return compile_program(load_source(program),
                               name=name or program, optimize=optimize)
    if "\n" not in program and "{" not in program \
            and os.path.exists(program):
        with open(program) as handle:
            source = handle.read()
        default = os.path.splitext(os.path.basename(program))[0]
        return compile_program(source, name=name or default,
                               optimize=optimize)
    return compile_program(program, name=name or "checker",
                           optimize=optimize)


def lint(program: Any, *, name: Optional[str] = None,
         only: Optional[List[str]] = None) -> List[Any]:
    """Lint an Indus checker: dataflow diagnostics over the compiled IR.

    ``program`` accepts everything :func:`compile_indus` does, or an
    already-compiled :class:`~repro.compiler.codegen.CompiledChecker`.
    ``only`` restricts to specific rule ids (``["IH001", ...]``).
    Returns the deterministically ordered
    :class:`~repro.analysis.diagnostics.Diagnostic` list; each entry
    carries the rule id, severity, message, Indus source span, and a
    fix hint.
    """
    from .analysis import lint_compiled
    from .compiler.codegen import CompiledChecker

    if not isinstance(program, CompiledChecker):
        program = compile_indus(program, name=name)
    return lint_compiled(program, only=only)


def deploy(compiled: Any, *, scenario: Any = None, topology: Any = None,
           forwarding: Any = None, engine: str = "codegen",
           obs: Any = None) -> Any:
    """Stand up a running deployment of a compiled checker.

    Either pass a difftest ``scenario=`` (everything else — topology,
    forwarding, routes — is derived from it), or pass ``topology=`` and
    ``forwarding=`` explicitly as
    :class:`~repro.runtime.deployment.HydraDeployment` would take them.
    Returns the live deployment: inject packets via
    ``deployment.network`` and read verdicts/reports off the collector.
    """
    if scenario is not None:
        from .difftest.harness import build_scenario_deployment

        return build_scenario_deployment(scenario, compiled,
                                         engine=engine, obs=obs)
    if topology is None or forwarding is None:
        raise TypeError(
            "deploy() needs either scenario=, or both topology= and "
            "forwarding=")
    from .runtime.deployment import HydraDeployment

    kwargs: Dict[str, Any] = {"engine": engine}
    if obs is not None:
        kwargs["obs"] = obs
    return HydraDeployment(topology, compiled, forwarding, **kwargs)


def run_scenario(scenario: Union[int, Any] = None, *,
                 seed: Optional[int] = None, obs: Any = None,
                 optimize: bool = False,
                 engines: Any = None) -> Any:
    """Run one differential-oracle scenario end to end: compile, deploy
    under both P4 engines, replay through the reference Indus monitor,
    compare all three.

    Pass a :class:`~repro.difftest.scenario.Scenario` (or its seed as a
    plain int), or ``seed=`` alone.  ``engines`` names the engines
    the oracle cross-checks, anchor first (default
    :data:`repro.p4.ENGINES`).  Returns the
    :class:`~repro.difftest.harness.ScenarioResult`; ``result.ok`` is
    the oracle verdict.
    """
    from .difftest import gen_scenario
    from .difftest.harness import run_scenario as _run

    if scenario is None:
        if seed is None:
            raise TypeError("run_scenario() needs a scenario or seed=")
        scenario = gen_scenario(seed)
    elif isinstance(scenario, int):
        scenario = gen_scenario(scenario)
    registry = None
    if obs is not None and obs.registry.live:
        registry = obs.registry
    return _run(scenario, registry=registry, optimize=optimize,
                engines=engines)


def difftest(*, seed: int = 0, iters: int = 100, workers: int = 1,
             inject_bug: bool = False, stop_on_failure: bool = True,
             obs: Any = None, timeout_s: float = 60.0,
             quarantine_dir: str = "difftest_failures",
             progress: Optional[Callable[[str], None]] = None,
             optimize: bool = False, engines: Any = None) -> Any:
    """Run a differential-oracle campaign over ``iters`` seeds starting
    at ``seed``.

    ``workers > 1`` shards the seed range across that many processes
    (:func:`repro.parallel.run_fleet`) with per-scenario ``timeout_s``
    kill, crashed-worker respawn, and quarantine of seeds that take
    down their worker (reproducer bundles land in ``quarantine_dir``).
    For a fixed seed the verdict *set* is identical for any worker
    count.  ``engines`` names the engines each scenario
    cross-checks (default :data:`repro.p4.ENGINES`).
    Returns the :class:`~repro.difftest.DifftestSummary`.
    """
    from .difftest import run_difftest

    return run_difftest(seed=seed, iters=iters, inject_bug=inject_bug,
                        stop_on_failure=stop_on_failure,
                        progress=progress, obs=obs, workers=workers,
                        timeout_s=timeout_s,
                        quarantine_dir=quarantine_dir,
                        optimize=optimize, engines=engines)


def bench(*, kind: str = "engine", packets: int = 5000,
          replay: bool = True, workers: int = 1,
          out: Optional[str] = None, optimize: bool = False,
          engines: Any = None,
          rate_pps: Optional[float] = None,
          duration_s: Optional[float] = None,
          seed: int = 5, sessions: Optional[int] = None,
          batched: bool = True,
          flatness: bool = True) -> "BenchResult":
    """Benchmark dispatcher — ``kind`` selects what is measured:

    * ``"engine"`` (default) — interp vs codegen packets/sec, a
      campus-replay goodput parity check, and a metered metrics
      snapshot.  The timed
      pps measurement always runs serially in this process —
      co-scheduling would distort it; ``workers > 1`` offloads the side
      tasks (replay parity, metered snapshot) to a process pool.
      ``engines`` restricts which engines are timed.
    * ``"net"`` — the traffic-plane benchmark
      (:func:`repro.experiments.netbench.run_net_bench`): a fig12-style
      campus replay through the full simulated fabric in both the
      batched and event-per-packet network modes, with an exact-
      equivalence stamp and a sustained-rate verdict against the
      paper's 350K pps mirror rate.  ``rate_pps``/``duration_s`` shape
      the offered load (defaults 400K pps for 1 simulated second).
    * ``"aether"`` — a bench-scale Aether soak
      (:func:`repro.experiments.aetherbench.run_soak` via
      :func:`aether`): ``sessions`` concurrent subscribers (default
      50,000 here; the full million-session campaign runs through
      :func:`aether` / ``repro aether``), churn, live checkers, and the
      flatness probe.  ``workers`` shards the soak.

    Returns a :class:`BenchResult` (a :class:`SoakResult` for the
    aether kind) — the report dict with typed accessors.  Writing to
    ``out`` appends the run to the report's ``history`` list so the
    trajectory across commits is preserved.
    """
    if kind not in BENCH_KINDS:
        raise ValueError(f"unknown bench kind {kind!r}; "
                         f"valid: {', '.join(BENCH_KINDS)}")
    if kind == "net":
        from .experiments.netbench import (DEFAULT_DURATION_S,
                                           DEFAULT_RATE_PPS, run_net_bench)

        engine = engines[0] if engines else "codegen"
        return BenchResult(run_net_bench(
            rate_pps=rate_pps if rate_pps is not None else DEFAULT_RATE_PPS,
            duration_s=(duration_s if duration_s is not None
                        else DEFAULT_DURATION_S),
            seed=seed, engine=engine, out_path=out), kind="net")
    if kind == "aether":
        engine = engines[0] if engines else "codegen"
        return aether(sessions=sessions if sessions is not None
                      else 50_000,
                      engine=engine, batched=batched, workers=workers,
                      flatness=flatness, out=out)
    from .experiments.bench import run_bench

    return BenchResult(
        run_bench(packets=packets, replay=replay, out_path=out,
                  workers=workers, optimize=optimize, engines=engines),
        kind="engine")


def aether(*, sessions: int = 1_000_000, engine: str = "codegen",
           batched: bool = True, workers: int = 1,
           batch_size: int = 10_000, churn_every: int = 10,
           replay_ues: int = 2_000, replay_repeats: int = 25,
           flatness: bool = True,
           out: Optional[str] = None) -> "SoakResult":
    """Soak the Aether testbed at scale (``repro aether``).

    Attaches ``sessions`` subscribers in bulk batches, churns every
    ``churn_every``-th one (detach + re-attach), then replays uplink
    and downlink traffic from ``replay_ues`` sampled UEs through the
    UPF with the application-filtering checker live.  ``flatness``
    additionally probes per-packet forwarding cost at a 10^4-session
    baseline and at full scale — the O(1) checker-state check.

    ``workers > 1`` shards the UE range round-robin across a process
    pool; every deterministic counter in the report is identical for
    any worker count.  Returns the :class:`SoakResult`; ``out`` writes
    ``BENCH_aether.json``-style history-carrying JSON.
    """
    from .experiments.aetherbench import run_soak

    return SoakResult(run_soak(
        sessions=sessions, engine=engine, batched=batched,
        workers=workers, batch_size=batch_size, churn_every=churn_every,
        replay_ues=replay_ues, replay_repeats=replay_repeats,
        flatness=flatness, out_path=out))


def generated_source(program: Union[int, str, Any], *,
                     name: Optional[str] = None,
                     optimize: bool = False) -> str:
    """The codegen engine's generated Python source for a pipeline.

    ``program`` accepts everything :func:`compile_indus` does — a
    bundled property name, an ``.indus`` path, Indus source text, or an
    already-compiled checker — plus a plain int, which is taken as a
    difftest scenario seed (the reproducer-bundle workflow: seeing the
    exact straight-line code an oracle divergence executed).  Returns
    the module source as emitted (one ``_process`` function,
    specialized to the program).
    """
    from .compiler import standalone_program
    from .compiler.codegen import CompiledChecker
    from .p4.bmv2 import Bmv2Switch

    if isinstance(program, int):
        from .compiler import compile_program
        from .difftest.scenario import gen_scenario

        source = gen_scenario(program).source()
        compiled = compile_program(source, name=name or f"dt{program}",
                                   optimize=optimize)
    elif isinstance(program, CompiledChecker):
        compiled = program
    else:
        compiled = compile_indus(program, name=name, optimize=optimize)
    switch = Bmv2Switch(standalone_program(compiled), name="dump",
                        switch_id=1, engine="codegen")
    return switch._fast.source
