"""End-to-end differential oracle: Indus semantics vs compiled P4.

The subsystem generates randomized property programs and network
scenarios (:mod:`.genprog`, :mod:`.scenario`), runs them through full
:class:`~repro.runtime.deployment.HydraDeployment` instances under both
P4 engines, replays the observed hop-by-hop trace through the reference
Indus :class:`~repro.indus.interp.Monitor`, and asserts that verdicts,
reports, and wire telemetry agree (:mod:`.harness`).  Failing cases
shrink to minimal reproducers (:mod:`.minimize`).

A campaign is one in-process loop over consecutive seeds.

Entry points: ``python -m repro difftest --seed N --iters K``,
:func:`repro.api.difftest`, and the pytest suite
``tests/test_difftest.py`` (marker ``difftest``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .genprog import GenProgram, gen_oracle_program
from .harness import (DiffFailure, ScenarioResult, build_packet,
                      build_scenario_deployment,
                      inject_mutation, kill_register_write, orphan_table,
                      run_scenario)
from .minimize import Minimizer, dump_reproducer
from .scenario import PacketSpec, Scenario, gen_scenario

__all__ = [
    "DiffFailure", "DifftestSummary", "GenProgram", "Minimizer",
    "PacketSpec", "Scenario", "ScenarioResult", "SeedOutcome",
    "build_packet", "build_scenario_deployment",
    "dump_reproducer", "gen_oracle_program", "gen_scenario",
    "inject_mutation", "kill_register_write", "orphan_table",
    "run_difftest", "run_scenario", "run_seed",
]


@dataclass
class SeedOutcome:
    """The oracle's verdict on one seed, folded into a campaign's
    :class:`DifftestSummary` by :meth:`DifftestSummary.absorb`."""

    seed: int
    failure: Optional[DiffFailure] = None
    packets_run: int = 0
    hops_checked: int = 0
    reports_checked: int = 0
    mutated: bool = False           # inject_bug mode: a mutation applied
    caught: bool = False            # ...and the oracle noticed it
    mutation_note: str = ""

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def verdict(self) -> str:
        """A short stable label for determinism comparisons: ``"ok"`` or
        the failure kind."""
        return "ok" if self.failure is None else self.failure.kind


def run_seed(seed: int, inject_bug: bool = False,
             registry: Any = None, engines: Any = None) -> SeedOutcome:
    """Run the oracle on one seed — one iteration of
    :func:`run_difftest`'s loop.  ``engines`` names the engines the
    oracle cross-checks (default :data:`repro.p4.ENGINES`)."""
    scenario = gen_scenario(seed)
    outcome = SeedOutcome(seed=seed)
    if inject_bug:
        rng = random.Random(seed)
        notes: List[str] = []

        def mutate(compiled):
            note = inject_mutation(compiled, rng)
            if note is not None:
                notes.append(note)

        result = run_scenario(scenario, mutate=mutate, registry=registry,
                              engines=engines)
        if notes:
            outcome.mutated = True
            outcome.mutation_note = notes[0]
            outcome.caught = result.failure is not None
        return outcome
    result = run_scenario(scenario, registry=registry, engines=engines)
    outcome.failure = result.failure
    outcome.packets_run = result.packets_run
    outcome.hops_checked = result.hops_checked
    outcome.reports_checked = result.reports_checked
    return outcome


@dataclass
class DifftestSummary:
    """Aggregate outcome of one difftest campaign."""

    iterations: int = 0
    packets_run: int = 0
    hops_checked: int = 0
    reports_checked: int = 0
    failures: List[DiffFailure] = field(default_factory=list)
    mutations_injected: int = 0
    mutations_caught: int = 0
    #: Per-seed verdict labels ("ok" or the failure kind).
    verdicts: Dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def absorb(self, outcome: SeedOutcome) -> None:
        """Fold one seed's outcome into the aggregate."""
        self.iterations += 1
        self.verdicts[outcome.seed] = outcome.verdict
        self.packets_run += outcome.packets_run
        self.hops_checked += outcome.hops_checked
        self.reports_checked += outcome.reports_checked
        if outcome.mutated:
            self.mutations_injected += 1
            if outcome.caught:
                self.mutations_caught += 1
        if outcome.failure is not None:
            self.failures.append(outcome.failure)


def run_difftest(seed: int = 0, iters: int = 100,
                 inject_bug: bool = False,
                 stop_on_failure: bool = True,
                 progress: Optional[Callable[[str], None]] = None,
                 obs: Any = None,
                 engines: Any = None,
                 ) -> DifftestSummary:
    """Run ``iters`` oracle iterations starting at ``seed``.

    Without ``inject_bug``, any failure is a real compiler/engine
    disagreement (collected in ``failures``).  With ``inject_bug``, each
    iteration mutates the compiled checker first and counts how many
    mutations the oracle catches; a *caught* mutation is the expected
    outcome and is not recorded as a failure.

    ``obs``, when given and live, accumulates campaign-wide metrics:
    its registry is threaded through every scenario.

    ``engines`` names the engines each scenario cross-checks, anchor
    first (default :data:`repro.p4.ENGINES`: interp, then codegen).
    """
    registry = None
    if obs is not None and obs.registry.live:
        registry = obs.registry
    summary = DifftestSummary()
    for i in range(iters):
        outcome = run_seed(seed + i, inject_bug=inject_bug,
                           registry=registry, engines=engines)
        summary.absorb(outcome)
        if progress and outcome.mutated and outcome.caught:
            progress(f"seed {seed + i}: mutation caught "
                     f"({outcome.mutation_note})")
        if outcome.failure is not None:
            if progress:
                progress(f"seed {seed + i}: FAIL {outcome.failure}")
            if stop_on_failure:
                break
        elif progress and not inject_bug and (i + 1) % 25 == 0:
            progress(f"{i + 1}/{iters} scenarios clean")
    return summary
