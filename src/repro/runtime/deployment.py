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
sets), which writes each variable where it is read: into the tables of
it that a switch's linked program applies
(:meth:`HydraDeployment.control_sites`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from ..compiler.driver import link_switches, switch_writes
from ..compiler.lower import CompiledChecker
from ..indus import ast
from ..indus.types import DictType, SetType
from ..net.packet import Packet
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


#: ``(switch, table, action)``: one table of a control variable that the
#: switch's linked program applies, and the action a write installs.
ControlSite = Tuple[str, str, str]


def _kind(ty: Any) -> str:
    if isinstance(ty, DictType):
        return "dict"
    if isinstance(ty, SetType):
        return "set"
    return "scalar"


#: Per kind of control variable, the action its writes install in a
#: table: a scalar's loader (a default action), a dict's or a set's hit.
_SITE_ACTION: Dict[str, Callable[[CompiledChecker, str, str], str]] = {
    "scalar": CompiledChecker.scalar_load_action,
    "dict": CompiledChecker.dict_hit_action,
    "set": CompiledChecker.set_hit_action,
}


def _applied_tables(program: ir.P4Program) -> FrozenSet[str]:
    """The tables some pipeline or action body of ``program`` applies."""
    return frozenset(stmt.table for body in ir.program_bodies(program)
                     for stmt in ir.walk_stmts(body)
                     if isinstance(stmt, ir.ApplyTable))


@dataclass
class SendResult:
    """What one packet sent through a deployment did."""

    delivered: bool
    new_reports: List[HydraReport]


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
            # Switch name -> the tables its linked program applies,
            # walked once per distinct linked program.
            by_program: Dict[int, FrozenSet[str]] = {}
            self._applied: Dict[str, FrozenSet[str]] = {}
            for name, program in self.linked.items():
                if id(program) not in by_program:
                    by_program[id(program)] = _applied_tables(program)
                self._applied[name] = by_program[id(program)]
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

    def control_sites(self, name: str, switch: Optional[str] = None
                      ) -> List[ControlSite]:
        """Where control variable ``name`` lives: a ``(switch, table,
        action)`` triple per table of it that the switch's linked program
        applies (on every switch, or on ``switch`` alone), the action
        being the one a write installs there.

        The linked programs are the one answer: a scalar's ingress loader
        is applied only at edges, and a dictionary looked up in the init
        block only at edges too, while under per-hop checking a core
        switch applies the checker's lookups as well.  A ``switch`` that
        reads the variable nowhere raises ``ValueError``.
        """
        compiled, decl = self._resolve_control(name)
        action = _SITE_ACTION[_kind(decl.ty)]
        switches = self.switches if switch is None else [switch]
        sites = [(sw, table, action(compiled, decl.name, table))
                 for sw in switches
                 for table in compiled.control_tables[decl.name]
                 if table in self._applied.get(sw, ())]
        if switch is not None and not sites:
            raise ValueError(
                f"control {name!r} is read by no table on switch {switch!r}")
        return sites

    def _sites_of(self, name: str, kind: str,
                  switch: Optional[str]) -> List[ControlSite]:
        """:meth:`control_sites`, once ``name`` is checked to be a
        ``kind`` (scalar, dict or set) variable."""
        _, decl = self._resolve_control(name)
        if _kind(decl.ty) != kind:
            raise ValueError(f"control {name!r} is a {decl.ty}, not a {kind}")
        return self.control_sites(name, switch)

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
        for sw, table, action in self._sites_of(name, "scalar", switch):
            self.switches[sw].set_default_action(table, action,
                                                 [_as_int(value)])

    def dict_put(self, name: str, key: Any, value: Any,
                 switch: Optional[str] = None) -> None:
        """Insert (or update) one exact entry of a control dictionary."""
        self.dict_put_ranges(name, _exact_ranges(key), value,
                             EXACT_PRIORITY, switch)

    def dict_put_ranges(self, name: str, ranges: Sequence[Tuple[int, int]],
                        value: Any, priority: int = 0,
                        switch: Optional[str] = None) -> None:
        """Insert a range/wildcard dictionary entry.

        ``ranges`` gives one inclusive [lo, hi] interval per flattened
        key component (use ``(0, 2**w - 1)`` for "any"), as the
        stateful-firewall permit-all of Figure 12's fabric does.
        """
        match = tuple((int(lo), int(hi)) for lo, hi in ranges)
        self._put(self._sites_of(name, "dict", switch), match,
                  [_as_int(value)], priority)

    def dict_remove(self, name: str, key: Any,
                    switch: Optional[str] = None) -> None:
        self._remove(self._sites_of(name, "dict", switch),
                     _exact_ranges(key))

    def dict_clear(self, name: str, switch: Optional[str] = None) -> None:
        """Remove every entry of a control dictionary."""
        for sw, table, _ in self._sites_of(name, "dict", switch):
            self.switches[sw].clear_table(table)

    def set_add(self, name: str, item: Any,
                switch: Optional[str] = None) -> None:
        """Add an element to a control set."""
        self._put(self._sites_of(name, "set", switch), _exact_ranges(item),
                  None, EXACT_PRIORITY)

    def set_remove(self, name: str, item: Any,
                   switch: Optional[str] = None) -> None:
        self._remove(self._sites_of(name, "set", switch),
                     _exact_ranges(item))

    def _put(self, sites: List[ControlSite],
             match: Tuple[Tuple[int, int], ...],
             args: Optional[List[int]], priority: int) -> None:
        """Replace the entry keyed ``match`` at every site."""
        self._remove(sites, match)
        for sw, table, action in sites:
            self.switches[sw].insert_entry(table, match, action, args,
                                           priority=priority)

    def _remove(self, sites: List[ControlSite],
                match: Tuple[Tuple[int, int], ...]) -> None:
        for sw, table, _ in sites:
            bmv2 = self.switches[sw]
            bmv2.delete_entries(table, [e for e in bmv2.entries[table]
                                        if e.match == match])

    # -- traffic ---------------------------------------------------------------

    def send(self, src_host: str, packet: Packet,
             dst_host: Optional[str]) -> SendResult:
        """Send ``packet`` from ``src_host`` and run the network until it
        is idle: whether ``dst_host`` (``None``: no host) received a
        packet meanwhile, and the reports raised."""
        before = len(self.reports)
        dest = self.network.host(dst_host) if dst_host is not None else None
        rx_before = dest.rx_count if dest is not None else 0
        self.network.host(src_host).send(packet)
        self.network.run()
        return SendResult(
            delivered=dest is not None and dest.rx_count > rx_before,
            new_reports=self.reports[before:])

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
