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
* :func:`difftest`     — a whole oracle campaign over consecutive seeds;
* :func:`generated_source` — the codegen engine's generated Python
  source for a pipeline (``repro dump-src`` is this verb on the
  command line).

:class:`DifftestSummary` is re-exported here so downstream type hints
never import internal modules.  Measurement is not a verb: the repo's
one benchmark is ``python3 bench/run.py`` (see ``bench/README.md``).

Uniform keywords across the verbs, always keyword-only:

* ``engine=``  — switch execution engine, one of
  :data:`repro.p4.ENGINES`: ``"codegen"`` (generated source; the
  default) or ``"interp"`` (the reference tree-walker);
* ``obs=``     — an :class:`~repro.obs.Observability` handle (metrics
  registry + tracer) threaded through every layer;
* ``seed=``    — the deterministic seed.  Scenarios are pure functions
  of their seed, so equal seeds mean equal behavior.

Stability promise: these signatures are the compatibility surface
the CLI, the experiment harnesses, and the tests are written against.
Internal modules (``repro.difftest.harness``, …) may reshuffle
between releases; this module will not.

Heavyweight subsystems are imported lazily inside each function so that
``import repro`` stays cheap and cycle-free.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = ["DifftestSummary", "compile_indus", "deploy", "difftest",
           "generated_source", "lint", "run_scenario"]


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
    A scenario deployment runs as the differential oracle builds it:
    under ``engine="interp"`` (the reference) in event mode, under any
    other engine on the batched traffic plane.
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


def difftest(*, seed: int = 0, iters: int = 100,
             inject_bug: bool = False, stop_on_failure: bool = True,
             obs: Any = None,
             progress: Optional[Callable[[str], None]] = None,
             optimize: bool = False, engines: Any = None) -> Any:
    """Run a differential-oracle campaign over ``iters`` seeds starting
    at ``seed``, one scenario after another in this process.

    ``obs``, when live, accumulates every scenario's metrics.
    ``engines`` names the engines each scenario cross-checks (default
    :data:`repro.p4.ENGINES`).
    Returns the :class:`~repro.difftest.DifftestSummary`.
    """
    from .difftest import run_difftest

    return run_difftest(seed=seed, iters=iters, inject_bug=inject_bug,
                        stop_on_failure=stop_on_failure,
                        progress=progress, obs=obs,
                        optimize=optimize, engines=engines)


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
    return switch._engine.source
