"""The three-level differential oracle.

One scenario runs through two full :class:`HydraDeployment` instances on
the simulator, one per P4 engine.  The reference, ``interp``, runs in
event mode with forwarding installed one ``insert_entry`` at a time;
``codegen`` runs the build we ship: uninstrumented (unless the caller
passed a registry), on the batched traffic plane, with forwarding
installed by ``insert_entries``.  Each network records a
:class:`~repro.net.simulator.HopRecord` per pipeline run into the hop
ring its handle carries: the hop-by-hop context each packet actually
experienced.  The reference's hops replay
through the :class:`~repro.indus.interp.Monitor` via
:func:`repro.runtime.tracecheck.run_trace` (whose per-hop telemetry
snapshots feed the telemetry comparison), and the oracle asserts that
all three levels agree on:

* the **verdict** (packet delivered vs. rejected at the last hop),
* the **reports** (block, switch id, payload — in emission order),
* the **telemetry** each hop put on the wire (the decoded Hydra header
  arriving at hop *i+1* must equal the monitor's state after hop *i*),
* plus engine-vs-engine equality of every hop (switch, ingress port,
  time, length, header values, Hydra header in, egress ports or drop
  reason, digests raised), delivered packet bytes, register state, and
  digest counts.

Any disagreement is a compiler or engine bug by construction: the
monitor executes the *specification* semantics on the same inputs the
deployment saw.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..compiler import compile_program
from ..compiler.lower import CompiledChecker
from ..indus import ast, check, parse
from ..net.packet import Packet, ip, make_tcp, make_udp
from ..net.simulator import HopRecord
from ..obs import Observability
from ..p4 import ENGINES, BoundedLog, ir
from ..p4.programs import l2_port_forwarding
from ..runtime.deployment import HydraDeployment
from ..runtime.tracecheck import run_trace
from .scenario import Scenario, compute_path, forwarding_entries

@dataclass
class DiffFailure:
    """One observed disagreement between oracle levels."""

    kind: str                  # "verdict" | "reports" | "telemetry" | "engine"
    message: str
    scenario: Scenario
    packet_index: int = -1
    trace: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        return (f"[{self.kind}] packet {self.packet_index}: {self.message}\n"
                f"  scenario: {self.scenario.describe()}")


@dataclass
class ScenarioResult:
    """Outcome of one oracle iteration."""

    scenario: Scenario
    failure: Optional[DiffFailure] = None
    packets_run: int = 0
    hops_checked: int = 0
    reports_checked: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class _HopView:
    """What one hop saw, read off the network's :class:`HopRecord`."""

    switch: str
    ingress_port: int
    t: float
    packet_length: int
    header_values: Dict[str, int]
    hydra: Optional[Dict[str, Any]]     # None before injection (first hop)
    egress: Tuple[int, ...]
    drop: Optional[str]                 # None unless the pipeline dropped it
    digests: int


# ---------------------------------------------------------------------------
# Packet construction and header-variable resolution
# ---------------------------------------------------------------------------

def build_packet(spec, topology, src_host: str, dst_host: str) -> Packet:
    src = topology.hosts[src_host].ipv4 or ip(10, 0, 0, 1)
    dst = topology.hosts[dst_host].ipv4 or ip(10, 0, 0, 2)
    maker = make_udp if spec.proto == "udp" else make_tcp
    return maker(src, dst, spec.sport, spec.dport,
                 payload_len=spec.payload_len, ttl=spec.ttl)


def _header_bindings(compiled: CompiledChecker) -> Dict[str, str]:
    """Indus header-var name -> resolved field path (annotation or the
    compiler's default binding table)."""
    from ..compiler.lower import DEFAULT_BINDINGS

    out: Dict[str, str] = {}
    for decl in compiled.checked.program.decls_of_kind(ast.VarKind.HEADER):
        binding = decl.annotation or DEFAULT_BINDINGS.get(decl.name)
        if binding is None:
            raise ValueError(
                f"header variable {decl.name!r} has no binding")
        out[decl.name] = binding
    return out


def _resolve_header(binding: str, packet: Packet, ingress_port: int) -> int:
    """The value a compiled read of ``binding`` sees at hop entry."""
    if binding.startswith("standard_metadata."):
        field_name = binding.split(".", 1)[1]
        if field_name == "ingress_port":
            return ingress_port
        raise ValueError(f"cannot resolve {binding!r} at hop entry")
    path = binding[4:] if binding.startswith("hdr.") else binding
    hname, _, fname = path.partition(".")
    header = packet.find(hname)
    if header is None or not header.valid:
        return 0        # invalid header reads yield 0, as in the engines
    return header.get(fname)


def _decode_hydra(compiled: CompiledChecker,
                  packet: Packet) -> Optional[Dict[str, Any]]:
    """Decode the telemetry header into {tele name: value} (arrays as
    lists of their first ``count`` slots), or None if not present."""
    layout = compiled.layout
    header = packet.find(layout.header.name)
    if header is None or not header.valid:
        return None
    out: Dict[str, Any] = {}
    for name, scalar in layout.scalars.items():
        out[name] = header.get(scalar.field)
    for name, arr in layout.arrays.items():
        count = min(header.get(arr.count_field), arr.capacity)
        out[name] = [header.get(arr.slot_fields[i]) for i in range(count)]
    return out


def _flatten_payload(payload: Any) -> Optional[Tuple[int, ...]]:
    """Normalize a monitor report payload to the wire view: a flat tuple
    of ints (bools as 0/1), or None for payload-less reports."""
    if payload is None:
        return None
    if isinstance(payload, tuple):
        out: List[int] = []
        for item in payload:
            flat = _flatten_payload(item)
            out.extend(flat or ())
        return tuple(out)
    if isinstance(payload, bool):
        return (1 if payload else 0,)
    return (int(payload),)


def _hop_view(hop: HopRecord, bindings: Dict[str, str],
              compiled: CompiledChecker) -> _HopView:
    packet = hop.packet
    return _HopView(
        switch=hop.switch,
        ingress_port=hop.ingress_port,
        t=hop.t,
        packet_length=packet.length,
        header_values={var: _resolve_header(binding, packet, hop.ingress_port)
                       for var, binding in bindings.items()},
        hydra=_decode_hydra(compiled, packet),
        egress=tuple(port for port, _ in hop.outputs),
        drop=hop.drop_reason,
        digests=hop.digests)


def _hop_difference(a: List[_HopView], b: List[_HopView]) -> str:
    """Where two engines' hop lists for one packet first part."""
    for k, (x, y) in enumerate(zip(a, b)):
        for f in fields(x):
            if getattr(x, f.name) != getattr(y, f.name):
                return (f"hop {k} {f.name}: {getattr(x, f.name)!r} vs "
                        f"{getattr(y, f.name)!r}")
    return f"{len(a)} hops vs {len(b)}"


# ---------------------------------------------------------------------------
# Deployment-side execution, observed through the network's hop records
# ---------------------------------------------------------------------------

@dataclass
class _EngineRun:
    """Everything one engine's deployment observed for one scenario."""

    verdicts: List[bool] = field(default_factory=list)
    hops: List[List[_HopView]] = field(default_factory=list)
    reports: List[List[Tuple[str, int, Optional[Tuple[int, ...]]]]] = \
        field(default_factory=list)
    delivered: List[Optional[list]] = field(default_factory=list)
    registers: Dict[str, Dict[str, List[int]]] = field(default_factory=dict)
    digest_totals: Dict[str, int] = field(default_factory=dict)


def _serialize_headers(packet: Packet) -> list:
    return [(h.htype.name, h.to_bits()) for h in packet.headers if h.valid]


def build_scenario_deployment(scenario: Scenario,
                              compiled: CompiledChecker,
                              engine: str = "codegen",
                              obs: Optional[Observability] = None,
                              ) -> HydraDeployment:
    """Build the deployment a scenario describes: topology, forwarding
    entries along the computed path, and control values.  Shared by the
    oracle (one deployment per engine) and the CLI trace surface.
    Library callers should go through :func:`repro.api.deploy`.

    The configuration follows ``engine``: the reference engine
    (``interp``) runs in event mode and takes its entries one
    ``insert_entry`` at a time; any other engine runs as shipped,
    batched with bulk writes."""
    topology = scenario.build_topology()
    rng = random.Random(scenario.seed)
    path = compute_path(topology, scenario.src_host, scenario.dst_host, rng)
    forwarding = dict.fromkeys(topology.switches, l2_port_forwarding("l2"))
    shipped = engine != ENGINES[0]
    dep = HydraDeployment(topology, compiled, forwarding, engine=engine,
                          obs=obs, batched=shipped)
    for sw, entries in forwarding_entries(
            topology, scenario.src_host, scenario.dst_host, path).items():
        rows = [([in_port], "fwd_set_egress", [out_port], 0)
                for in_port, out_port in entries]
        if shipped:
            dep.switches[sw].insert_entries("fwd_table", rows)
        else:
            for row in rows:
                dep.switches[sw].insert_entry("fwd_table", *row)
    for name, value in scenario.controls.items():
        dep.set_control(name, value)
    return dep


def _run_engine(scenario: Scenario, compiled: CompiledChecker,
                engine: str, registry=None) -> _EngineRun:
    hops = BoundedLog()
    dep = build_scenario_deployment(
        scenario, compiled, engine=engine,
        obs=Observability(registry=registry, hops=hops))
    topology = dep.topology
    network = dep.network
    bindings = _header_bindings(compiled)

    run = _EngineRun()
    dst = network.host(scenario.dst_host)
    for spec in scenario.packets:
        hops.clear()
        dep.clear_reports()
        before_rx = dst.rx_count
        packet = build_packet(spec, topology, scenario.src_host,
                              scenario.dst_host)
        network.host(scenario.src_host).send(packet)
        network.run()
        run.verdicts.append(dst.rx_count > before_rx)
        run.hops.append([_hop_view(hop, bindings, compiled)
                         for hop in hops])
        run.reports.append([
            (r.block, topology.switches[r.switch_name].switch_id, r.payload)
            for r in dep.reports
        ])
        if dst.rx_count > before_rx:
            if dst.rx_count != before_rx + 1:
                raise RuntimeError(f"{scenario.dst_host!r} got one packet "
                                   f"{dst.rx_count - before_rx} times")
            run.delivered.append(_serialize_headers(dst.received[-1][1]))
        else:
            run.delivered.append(None)
    run.registers = {name: {reg: list(vals)
                            for reg, vals in sw.registers.items()}
                     for name, sw in dep.switches.items()}
    run.digest_totals = {name: sw.digests.total
                         for name, sw in dep.switches.items()}
    return run


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def _build_trace(scenario: Scenario, topology,
                 hops: List[_HopView]) -> Dict[str, Any]:
    """The tracecheck document reconstructing what the deployment saw.

    ``hop_count`` is set to ``i + 1`` because the compiled telemetry
    block pre-increments the counter: during hop *i* (0-based) both the
    telemetry and checker code observe the value ``i + 1``.
    """
    return {
        "controls": dict(scenario.controls),
        "hops": [
            {
                "headers": dict(rec.header_values),
                "switch_id": topology.switches[rec.switch].switch_id,
                "packet_length": rec.packet_length,
                "hop_count": i + 1,
            }
            for i, rec in enumerate(hops)
        ],
    }


def run_scenario(scenario: Scenario,
                 mutate: Optional[Callable[[CompiledChecker], Any]] = None,
                 registry=None,
                 engines: Optional[Tuple[str, ...]] = None) -> ScenarioResult:
    """Run one scenario through all three levels and compare.

    ``mutate``, when given, is applied to the compiled checker before
    deployment — the injected-bug hook used to validate that the oracle
    actually catches compiler defects.  ``registry``, when given, is a
    live metrics registry shared by both engine deployments (the
    verdicts must be identical with or without it).  ``engines`` names
    the engines the oracle cross-checks (default
    :data:`repro.p4.ENGINES`), two or more and none twice; the first is
    the comparison anchor, whose hops feed the monitor, and every other
    must agree with it hop by hop and byte for byte.  Each engine's
    configuration follows its name, not its position (see
    :func:`build_scenario_deployment`): ``interp`` always runs the
    reference configuration.
    """
    engines = tuple(engines) if engines else ENGINES
    if len(engines) < 2 or len(set(engines)) < len(engines):
        raise ValueError("the oracle needs at least two distinct engines "
                         f"to cross-check, got {engines!r}")
    result = ScenarioResult(scenario=scenario)

    def fail(kind: str, message: str, packet_index: int = -1,
             trace: Optional[Dict[str, Any]] = None) -> ScenarioResult:
        result.failure = DiffFailure(kind=kind, message=message,
                                     scenario=scenario,
                                     packet_index=packet_index, trace=trace)
        return result

    # One front-end pass: the compiler and the reference monitor read
    # the same checked AST, and neither writes it.
    try:
        checked = check(parse(scenario.source()))
        compiled = compile_program(checked, name=f"dt{scenario.seed}")
    except Exception as exc:
        return fail("compile", f"compiler rejected generated program: {exc}")
    if mutate is not None:
        mutate(compiled)

    runs: Dict[str, _EngineRun] = {}
    for engine in engines:
        try:
            runs[engine] = _run_engine(scenario, compiled, engine,
                                       registry=registry)
        except Exception as exc:
            return fail("engine", f"{engine} deployment crashed: {exc!r}")

    # Level 1: every P4 engine must agree byte-for-byte with the first.
    anchor = engines[0]
    a = runs[anchor]
    for other in engines[1:]:
        b = runs[other]
        for i in range(len(scenario.packets)):
            if a.verdicts[i] != b.verdicts[i]:
                return fail("engine", f"verdict {anchor}={a.verdicts[i]} "
                            f"{other}={b.verdicts[i]}", i)
            if a.hops[i] != b.hops[i]:
                where = _hop_difference(a.hops[i], b.hops[i])
                return fail("engine", f"hops differ, {where} "
                            f"({anchor} vs {other})", i)
            if a.delivered[i] != b.delivered[i]:
                return fail("engine", f"delivered packet bytes differ "
                            f"({anchor} vs {other})", i)
            if a.reports[i] != b.reports[i]:
                return fail("engine",
                            f"reports differ: {anchor}={a.reports[i]} "
                            f"{other}={b.reports[i]}", i)
        if a.registers != b.registers:
            return fail("engine", f"final register state differs "
                        f"({anchor} vs {other})")
        if a.digest_totals != b.digest_totals:
            return fail("engine", f"digest totals differ: "
                        f"{a.digest_totals} vs {b.digest_totals} "
                        f"({anchor} vs {other})")

    # Level 2+3: deployment behavior vs the reference monitor, replaying
    # the observed per-hop context through tracecheck.
    topology = scenario.build_topology()
    run = runs[anchor]
    for i in range(len(scenario.packets)):
        hops = run.hops[i]
        if not hops:
            return fail("verdict", "packet never reached a switch", i)
        trace = _build_trace(scenario, topology, hops)
        trace_result = run_trace(checked, trace)
        snapshots = trace_result.hop_tele
        result.packets_run += 1

        # Verdict: delivered iff the monitor accepted.
        if trace_result.accepted != run.verdicts[i]:
            return fail(
                "verdict",
                f"monitor {'accepted' if trace_result.accepted else 'rejected'}"
                f" but deployment "
                f"{'delivered' if run.verdicts[i] else 'dropped'}",
                i, trace)

        # Reports: same (block, switch_id, payload) sequence.
        monitor_reports = [
            (rep.block, rep.switch_id, _flatten_payload(rep.payload))
            for rep in trace_result.reports
        ]
        if monitor_reports != run.reports[i]:
            return fail(
                "reports",
                f"monitor={monitor_reports} deployment={run.reports[i]}",
                i, trace)
        result.reports_checked += len(monitor_reports)

        # Telemetry on the wire: the Hydra header arriving at hop k+1
        # equals the monitor state after hop k.
        for k in range(len(hops) - 1):
            wire = hops[k + 1].hydra
            if wire is None:
                return fail("telemetry",
                            f"no telemetry header arriving at hop {k + 1}",
                            i, trace)
            expect = snapshots[k]
            for name, value in expect.items():
                if name not in wire:
                    return fail("telemetry",
                                f"tele {name!r} missing from wire header",
                                i, trace)
                if wire[name] != value:
                    return fail(
                        "telemetry",
                        f"hop {k}: tele {name!r} monitor={value} "
                        f"wire={wire[name]}", i, trace)
            result.hops_checked += 1
    return result


# ---------------------------------------------------------------------------
# Mutation injection: prove the oracle catches compiler defects
# ---------------------------------------------------------------------------

_OP_SWAP = {"+": "-", "-": "+", "*": "+", "&": "|", "|": "&", "^": "&",
            "/": "%", "%": "/", "<<": ">>", ">>": "<<",
            "==": "!=", "!=": "==", "<": "<=", "<=": "<",
            ">": ">=", ">=": ">", "&&": "||", "||": "&&"}


def _mutable_points(expr, out: List[Tuple[Any, str]]) -> None:
    """Append ``expr``'s mutation points to ``out``, operators before
    their operands, left before right."""
    if isinstance(expr, ir.BinExpr):
        if expr.op in _OP_SWAP:
            out.append((expr, "op"))
        _mutable_points(expr.left, out)
        _mutable_points(expr.right, out)
    elif isinstance(expr, ir.UnExpr):
        _mutable_points(expr.operand, out)
    elif isinstance(expr, ir.Const) and expr.width == 16:
        out.append((expr, "const"))


def _collect_mutable(stmts: List[ir.P4Stmt]) -> List[Tuple[Any, str]]:
    """(node, kind) pairs of mutation points in a compiled block."""
    out: List[Tuple[Any, str]] = []
    for stmt in ir.walk_stmts(stmts):
        if isinstance(stmt, ir.AssignStmt):
            _mutable_points(stmt.value, out)
        elif isinstance(stmt, ir.IfStmt):
            _mutable_points(stmt.cond, out)
        elif isinstance(stmt, ir.Digest):
            for fexpr in stmt.fields[1:]:   # skip the site-id constant
                _mutable_points(fexpr, out)
    return out


def _sites(stmts: List[ir.P4Stmt]):
    """Yield ``(body, index)`` for every statement in a block, nested
    bodies included: ``body[index]`` is the statement."""
    for index, stmt in enumerate(stmts):
        yield stmts, index
        for body in ir.bodies(stmt):
            yield from _sites(body)


def _replaced(expr, node, new):
    """``expr`` with ``node`` (by identity) replaced by ``new``: the
    nodes above it rebuilt, every other node shared."""
    if expr is node:
        return new
    if isinstance(expr, ir.BinExpr):
        left = _replaced(expr.left, node, new)
        right = _replaced(expr.right, node, new)
        if left is not expr.left or right is not expr.right:
            return replace(expr, left=left, right=right)
    elif isinstance(expr, ir.UnExpr):
        operand = _replaced(expr.operand, node, new)
        if operand is not expr.operand:
            return replace(expr, operand=operand)
    return expr


def _substitute(compiled: CompiledChecker, node, mutant) -> None:
    """Put ``mutant`` where ``node`` is in every statement of
    ``compiled`` (its fragments and action bodies), each such statement
    rebuilt in its own list.  A lowering may share one expression among
    statements (a ``push`` writes each slot's assignment from one
    expression); all of them take the mutant, and nothing outside the
    checker does."""
    blocks = list(compiled.fragments().values())
    blocks += [action.body for action in compiled.actions.values()]
    for block in blocks:
        for body, index in _sites(block):
            stmt = copy.copy(body[index])
            if ir.map_exprs(stmt, lambda expr: _replaced(expr, node, mutant)):
                body[index] = stmt


def _find_stmt_site(stmts: List[ir.P4Stmt], pred
                    ) -> Optional[Tuple[List[ir.P4Stmt], int]]:
    """The (body list, index) of the first statement matching ``pred``,
    recursing into branches."""
    return next(((body, index) for body, index in _sites(stmts)
                 if pred(body[index])), None)


def kill_register_write(compiled: CompiledChecker) -> Optional[str]:
    """Delete the first register write of the telemetry/checker blocks —
    a lint-visible codegen bug: the register's remaining reads only ever
    see the initial value (``IH002``).  Returns a description, or None
    if the program writes no register."""
    fragments = compiled.fragments()
    for label in ("telemetry", "checker"):
        site = _find_stmt_site(
            fragments[label], lambda s: isinstance(s, ir.RegisterWrite))
        if site is not None:
            body, index = site
            stmt = body[index]
            del body[index]
            return f"{label}: killed write to register {stmt.register!r}"
    return None


def orphan_table(compiled: CompiledChecker) -> Optional[str]:
    """Delete the first non-ABI table apply from the compiled fragments,
    leaving the table declared but unreachable — a lint-visible codegen
    bug (``IH007`` dead table).  Returns a description, or None if there
    is no such apply."""
    abi = {compiled.inject_table, compiled.strip_table,
           compiled.switch_id_table}
    for label, stmts in compiled.fragments().items():
        if label == "strip":
            continue
        site = _find_stmt_site(
            stmts, lambda s: (isinstance(s, ir.ApplyTable)
                              and s.table not in abi))
        if site is not None:
            body, index = site
            stmt = body[index]
            del body[index]
            return f"{label}: orphaned table {stmt.table!r}"
    return None


def inject_mutation(compiled: CompiledChecker, rng: random.Random,
                    kinds: Tuple[str, ...] = ("op", "const"),
                    ) -> Optional[str]:
    """Mutate the compiled checker in place, simulating a codegen bug.
    Returns a description, or None if the program offers no mutation
    point.

    The default kinds mutate one expression of the init/tele/checker
    blocks (swap a binary operator or perturb a 16-bit constant).  Two
    further kinds are opt-in because they are *structural* and visible
    to ``repro lint`` as well as to the oracle: ``"kill_write"``
    (delete a register write — IH002) and ``"orphan"`` (delete a table
    apply, leaving the table dead — IH007)."""
    points: List[Tuple[str, Any, str]] = []
    fragments = compiled.fragments()
    for label in ("init", "telemetry", "checker"):
        points.extend((label, node, kind)
                      for node, kind in _collect_mutable(fragments[label])
                      if kind in kinds)
    if "kill_write" in kinds:
        points.append(("*", None, "kill_write"))
    if "orphan" in kinds:
        points.append(("*", None, "orphan"))
    if not points:
        return None
    label, node, kind = rng.choice(points)
    if kind == "kill_write":
        return kill_register_write(compiled)
    if kind == "orphan":
        return orphan_table(compiled)
    # Expressions are frozen and shared (a link clones statements, not
    # their expressions), so the mutant is a new node in rebuilt
    # statements of this checker: a program already linked from it
    # keeps the original.
    if kind == "op":
        mutant = replace(node, op=_OP_SWAP[node.op])
        note = f"{label}: swapped operator {node.op!r} -> {mutant.op!r}"
    else:
        mutant = replace(node, value=(node.value + 1) & 0xFFFF)
        note = f"{label}: constant {node.value} -> {mutant.value}"
    _substitute(compiled, node, mutant)
    return note
