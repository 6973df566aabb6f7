"""Deployment of compiled Hydra checkers onto a network.

:class:`HydraDeployment` takes a topology, a forwarding program for
each switch (usually one object for all of them), and one or more
compiled checkers.  It links and wires them the way the compiler
driver describes a deployment (:mod:`repro.compiler.driver`):
:func:`~repro.compiler.driver.link_switches` links each distinct
program once per switch role (edge switches run init/telemetry/checker,
core switches telemetry only), and the writes of
:func:`~repro.compiler.driver.switch_writes` — the inject/strip
edge-port entries, then the switch-id defaults — are applied to the
behavioral switches, so a control plane that follows the manifest
``repro codegen`` writes builds the same switches.  It also exposes the
control-plane API for Indus ``control`` variables (scalars, dicts,
sets).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..compiler.driver import link_switches, switch_writes
from ..compiler.lower import CompiledChecker
from ..indus import ast
from ..indus.types import DictType, SetType
from ..net.simulator import Network
from ..net.topology import Topology
from ..obs import NULL_OBS, Observability, profiled
from ..p4 import ir
from ..p4.bmv2 import Bmv2Switch
from .reports import HydraReport, ReportCollector

# Exact dictionary entries outrank any wildcard/range entry the control
# plane installs, unless the caller asks otherwise.
EXACT_PRIORITY = 1 << 20


def _flatten_key(key: Any) -> List[int]:
    """Flatten a (possibly nested tuple) key into scalar ints."""
    if isinstance(key, tuple):
        out: List[int] = []
        for item in key:
            out.extend(_flatten_key(item))
        return out
    if isinstance(key, bool):
        return [1 if key else 0]
    return [int(key)]


def _exact_ranges(key: Any) -> Tuple[Tuple[int, int], ...]:
    """An exact key expressed as degenerate [v, v] range matches."""
    return tuple((v, v) for v in _flatten_key(key))


def _as_int(value: Any) -> int:
    if isinstance(value, bool):
        return 1 if value else 0
    return int(value)


class HydraDeployment:
    """Compiled checker(s) deployed across every switch of a topology."""

    def __init__(self, topology: Topology,
                 compiled: Union[CompiledChecker, Sequence[CompiledChecker]],
                 forwarding: Dict[str, ir.P4Program],
                 check_mode: str = "last_hop",
                 serialize_on_wire: bool = False,
                 engine: str = "codegen",
                 obs: Optional[Observability] = None,
                 batched: bool = True):
        self.topology = topology
        self.check_mode = check_mode
        self.obs = obs if obs is not None else NULL_OBS
        self.compileds: List[CompiledChecker] = (
            [compiled] if isinstance(compiled, CompiledChecker)
            else list(compiled)
        )
        self.collector = ReportCollector(self.compileds)
        if self.obs.registry.live:
            violations = self.obs.registry.metric("checker_violations_total")
            self.collector.subscribe(
                lambda r: violations.labels(r.checker, r.switch_name).inc())
        self.switches: Dict[str, Bmv2Switch] = {}
        with profiled(self.obs.registry, "link"):
            self.linked: Dict[str, ir.P4Program] = link_switches(
                topology, self.compileds, forwarding, check_mode)
        with profiled(self.obs.registry, "deploy"):
            for name, spec in topology.switches.items():
                bmv2 = Bmv2Switch(self.linked[name], name=name,
                                  switch_id=spec.switch_id, engine=engine,
                                  obs=self.obs)
                bmv2.on_digest(self.collector.on_digest)
                self.switches[name] = bmv2
            writes = switch_writes(self.compileds, topology)
            for name, write in writes.items():
                for entry in write["entries"]:
                    self.switches[name].insert_entry(
                        entry["table"], entry["match"], entry["action"])
            for name, write in writes.items():
                for default in write["defaults"]:
                    self.switches[name].set_default_action(
                        default["table"], default["action"],
                        default["args"])
            self.network = Network(topology, self.switches,
                                   serialize_on_wire=serialize_on_wire,
                                   obs=self.obs, batched=batched)

    @property
    def compiled(self) -> CompiledChecker:
        """The first (or only) deployed checker."""
        return self.compileds[0]

    # -- control-variable resolution ---------------------------------------------

    def _resolve_control(self, name: str) -> Tuple[CompiledChecker, ast.Decl]:
        """Find which deployed checker owns control variable ``name``.

        With several checkers, an ambiguous name can be qualified as
        ``"checker_name:var_name"``.
        """
        checker_name: Optional[str] = None
        if ":" in name:
            checker_name, name = name.split(":", 1)
        owners: List[Tuple[CompiledChecker, ast.Decl]] = []
        for c in self.compileds:
            if checker_name is not None and c.name != checker_name:
                continue
            decl = c.checked.program.decl(name)
            if decl is not None and decl.kind is ast.VarKind.CONTROL:
                owners.append((c, decl))
        if not owners:
            raise ValueError(f"unknown control variable {name!r}")
        if len(owners) > 1:
            raise ValueError(
                f"control variable {name!r} exists in several checkers; "
                f"qualify it as '<checker>:{name}'"
            )
        return owners[0]

    def _target_switches(self,
                         switch: Optional[str]) -> Iterable[Bmv2Switch]:
        if switch is not None:
            return [self.switches[switch]]
        return self.switches.values()

    # -- control-plane API ----------------------------------------------------

    def set_control(self, name: str, value: Any,
                    switch: Optional[str] = None) -> None:
        """Set a scalar control variable (on one switch or everywhere).

        Implemented by rewriting the default action of the generated
        loader tables, so the value can change on the fly without
        recompiling — the property the paper highlights for Figure 2,
        and one both engines keep: the codegen engine stores the new
        argument into its live module (``Bmv2Switch.engine_counts()``
        shows a rebind, not a build).
        """
        compiled, decl = self._resolve_control(name)
        if isinstance(decl.ty, (DictType, SetType)):
            raise ValueError(
                f"control {name!r} is a {decl.ty}; use dict_put/set_add"
            )
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                bmv2.set_default_action(
                    table, compiled.scalar_load_action(decl.name, table),
                    [_as_int(value)]
                )

    def dict_put(self, name: str, key: Any, value: Any,
                 switch: Optional[str] = None) -> None:
        """Insert (or update) one exact entry of a control dictionary."""
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, DictType):
            raise ValueError(f"control {name!r} is not a dict")
        match = _exact_ranges(key)
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                self._remove_matching(bmv2, table, match)
                bmv2.insert_entry(table, match,
                                  compiled.dict_hit_action(decl.name, table),
                                  [_as_int(value)], priority=EXACT_PRIORITY)

    def dict_put_ranges(self, name: str, ranges: List[Tuple[int, int]],
                        value: Any, priority: int = 0,
                        switch: Optional[str] = None) -> None:
        """Insert a range/wildcard dictionary entry.

        ``ranges`` gives one inclusive [lo, hi] interval per flattened
        key component (use ``(0, 2**w - 1)`` for "any").  The Aether
        control app uses this to mirror slice filtering rules, whose
        application patterns contain prefixes and port ranges.
        """
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, DictType):
            raise ValueError(f"control {name!r} is not a dict")
        match = tuple((int(lo), int(hi)) for lo, hi in ranges)
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                self._remove_matching(bmv2, table, match)
                bmv2.insert_entry(table, match,
                                  compiled.dict_hit_action(decl.name, table),
                                  [_as_int(value)], priority=priority)

    def dict_remove(self, name: str, key: Any,
                    switch: Optional[str] = None) -> None:
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, DictType):
            raise ValueError(f"control {name!r} is not a dict")
        match = _exact_ranges(key)
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                self._remove_matching(bmv2, table, match)

    def dict_clear(self, name: str, switch: Optional[str] = None) -> None:
        """Remove every entry of a control dictionary."""
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, DictType):
            raise ValueError(f"control {name!r} is not a dict")
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                bmv2.clear_table(table)

    def set_add(self, name: str, item: Any,
                switch: Optional[str] = None) -> None:
        """Add an element to a control set."""
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, SetType):
            raise ValueError(f"control {name!r} is not a set")
        match = _exact_ranges(item)
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                self._remove_matching(bmv2, table, match)
                bmv2.insert_entry(table, match,
                                  compiled.set_hit_action(decl.name, table),
                                  priority=EXACT_PRIORITY)

    def set_remove(self, name: str, item: Any,
                   switch: Optional[str] = None) -> None:
        compiled, decl = self._resolve_control(name)
        if not isinstance(decl.ty, SetType):
            raise ValueError(f"control {name!r} is not a set")
        match = _exact_ranges(item)
        for bmv2 in self._target_switches(switch):
            for table in compiled.control_tables[decl.name]:
                self._remove_matching(bmv2, table, match)

    @staticmethod
    def _remove_matching(bmv2: Bmv2Switch, table: str,
                         match: Tuple[Tuple[int, int], ...]) -> None:
        bmv2.delete_entries(table, [e for e in bmv2.entries[table]
                                    if e.match == match])

    # -- reports ---------------------------------------------------------------

    @property
    def reports(self) -> List[HydraReport]:
        return self.collector.reports

    def clear_reports(self) -> None:
        self.collector.clear()

    # -- monitoring -------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operational counters: per-switch processed/dropped packets,
        per-table index rebuilds/folds and delete paths (vouched/
        scanned/cuts), engine builds/compiles/rebinds, and per-checker
        report counts — what an operator dashboard for this deployment
        would show."""
        per_switch = {
            name: {
                "processed": bmv2.packets_processed,
                "dropped": bmv2.packets_dropped,
                "indexes": bmv2.index_counts(),
                "engine": bmv2.engine_counts(),
            }
            for name, bmv2 in self.switches.items()
        }
        reports_by_checker: Dict[str, int] = {}
        reports_by_switch: Dict[str, int] = {}
        for report in self.reports:
            reports_by_checker[report.checker] = \
                reports_by_checker.get(report.checker, 0) + 1
            reports_by_switch[report.switch_name] = \
                reports_by_switch.get(report.switch_name, 0) + 1
        out = {
            "switches": per_switch,
            "reports_total": len(self.reports),
            "reports_by_checker": reports_by_checker,
            "reports_by_switch": reports_by_switch,
            "checkers": [c.name for c in self.compileds],
            "check_mode": self.check_mode,
        }
        if self.obs.registry.live:
            out["metrics"] = self.obs.registry.to_dict()
        return out
