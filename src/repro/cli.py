"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``check <file.indus>``       — parse + type-check a program
* ``compile <name-or-file>``   — compile to P4 and print the code
* ``lint <target>``            — dataflow diagnostics over a checker
* ``properties``               — list the bundled property library
* ``table1``                   — reproduce Table 1
* ``fig12``                    — run the Figure 12 RTT experiment
* ``difftest``                 — three-level differential oracle
* ``dump-src <target>``        — print the codegen engine's generated
  Python source for a pipeline, with line numbers
* ``metrics``                  — run a metered deployment, dump metrics
* ``trace``                    — run a scenario and print its hop ring
* ``ltl "<formula>"``          — compile an LTLf formula to Indus
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Collection, Dict, List, Optional

from .p4 import ENGINES

from .indus import IndusError, check, parse


def _load_program_text(target: str) -> tuple:
    """Resolve a CLI target to (name, source text): either a bundled
    property name or a path to an .indus file."""
    from .properties import PROPERTIES, load_source

    if target in PROPERTIES:
        return target, load_source(target)
    if os.path.exists(target):
        with open(target) as handle:
            return os.path.splitext(os.path.basename(target))[0], \
                handle.read()
    raise SystemExit(
        f"error: {target!r} is neither a bundled property nor a file; "
        f"bundled: {', '.join(sorted(PROPERTIES))}"
    )


def cmd_check(args: argparse.Namespace) -> int:
    name, source = _load_program_text(args.target)
    try:
        checked = check(parse(source))
    except IndusError as exc:
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 1
    program = checked.program
    print(f"{name}: OK")
    for decl in program.decls:
        print(f"  {decl.kind.value:8s} {decl.ty}  {decl.name}")
    if checked.used_builtins:
        print(f"  builtins: {', '.join(sorted(checked.used_builtins))}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .compiler import compile_program, standalone_program
    from .p4 import count_loc, render

    name, source = _load_program_text(args.target)
    try:
        compiled = compile_program(source, name=name)
    except IndusError as exc:
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 1
    if args.summary:
        header = compiled.hydra_header
        print(f"checker:          {name}")
        print(f"telemetry header: {header.width_bits} bits "
              f"({header.width_bytes} bytes), {len(header.fields)} fields")
        print(f"metadata fields:  {len(compiled.metadata)}")
        print(f"registers:        {len(compiled.registers)}")
        print(f"tables:           {len(compiled.tables)} "
              f"({', '.join(compiled.tables)})")
        text = render(standalone_program(compiled))
        print(f"generated P4:     {count_loc(text)} lines")
    else:
        print(render(standalone_program(compiled)))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (lint_compiled, max_severity, render_json,
                           Severity)
    from .compiler import compile_program

    threshold = Severity.parse(args.fail_on)
    if args.all:
        from .properties import PROPERTIES, load_source

        targets = [(name, load_source(name)) for name in sorted(PROPERTIES)]
    elif args.target is None:
        raise SystemExit("error: give a target (property name, .indus "
                         "file, or difftest seed) or --all")
    elif args.target.lstrip("-").isdigit():
        from .difftest.scenario import gen_scenario

        seed = int(args.target)
        targets = [(f"dt{seed}", gen_scenario(seed).source())]
    else:
        targets = [_load_program_text(args.target)]
    only = [r.strip() for r in args.only.split(",")] if args.only else None
    failed = False
    json_blobs = []
    for name, source in targets:
        try:
            compiled = compile_program(source, name=name)
        except IndusError as exc:
            print(f"{name}: error: {exc}", file=sys.stderr)
            return 1
        diags = lint_compiled(compiled, only=only)
        worst = max_severity(diags)
        if worst is not None and worst >= threshold:
            failed = True
        if args.json:
            json_blobs.append(render_json(diags, name=name))
        else:
            for diag in diags:
                print(diag.format(name=name))
            label = ("clean" if not diags else
                     f"{len(diags)} finding(s), worst {worst.label}")
            print(f"{name}: {label}")
    if args.json:
        print(json_blobs[0] if len(json_blobs) == 1
              else "[\n" + ",\n".join(json_blobs) + "\n]")
    return 1 if failed else 0


def cmd_properties(_args: argparse.Namespace) -> int:
    from .properties import PROPERTIES, indus_loc

    width = max(len(name) for name in PROPERTIES)
    for name, info in sorted(PROPERTIES.items()):
        table1 = "Table 1" if info.in_table1 else "extra  "
        print(f"{name:{width}s}  {table1}  {indus_loc(name):3d} LoC  "
              f"{info.description}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import compute_table, format_table

    print(format_table(compute_table()))
    return 0


def cmd_fig12(args: argparse.Namespace) -> int:
    from .experiments import Fig12Config, run_fig12
    from .properties import PROPERTIES

    config = Fig12Config(duration_s=args.duration,
                         load_bps_per_pair=args.load * 1e6,
                         engine=args.engine)
    checkers = _parse_names(args.checkers, PROPERTIES, "checker")
    print(f"running Figure 12 (duration {args.duration}s, "
          f"{args.load} Mb/s per pair, "
          f"checkers: {', '.join(checkers) if checkers else 'all'}"
          "; this takes a little while)...")
    try:
        result = run_fig12(config, checkers=checkers)
    except ValueError as exc:   # the t-test's refusal of a short arm
        print(f"error: an arm measured fewer than two pings ({exc}); "
              "lengthen --duration", file=sys.stderr)
        return 1
    for run in (result.baseline, result.with_checkers):
        print(f"{run.label:14s} n={len(run.rtts_ms):4d} "
              f"mean RTT={run.mean_ms:.4f} ms")
    t = result.t_test
    verdict = ("statistically significant difference"
               if t.significant() else "no significant difference")
    print(f"Welch t-test: t={t.statistic:.3f}, p={t.p_value:.3f} "
          f"-> {verdict}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _parse_names(text: str, valid: Collection[str],
                 what: str) -> Optional[List[str]]:
    """A comma-separated list of ``valid`` names; empty/blank -> None."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    for name in names:
        if name not in valid:
            raise SystemExit(f"error: unknown {what} {name!r}; "
                             f"valid: {', '.join(valid)}")
    return names or None


def cmd_difftest(args: argparse.Namespace) -> int:
    from .api import difftest
    from .difftest import Minimizer, dump_reproducer

    engines = _parse_names(args.engine, ENGINES, "engine")
    if engines is not None and (len(engines) < 2
                                or len(set(engines)) < len(engines)):
        raise SystemExit("error: the oracle cross-checks engines; give "
                         "at least two distinct ones (e.g. --engine "
                         "interp,codegen)")
    mode = "injected-bug validation" if args.inject_bug else "oracle"
    print(f"difftest ({mode}): seed {args.seed}, {args.iters} iteration(s)"
          + (f", engines {','.join(engines)}" if engines else ""))
    summary = difftest(seed=args.seed, iters=args.iters,
                       inject_bug=args.inject_bug, progress=print,
                       engines=engines)
    if args.inject_bug:
        print(f"mutations injected: {summary.mutations_injected}, "
              f"caught: {summary.mutations_caught}")
        if summary.mutations_injected == 0:
            print("error: no iteration offered a mutation point",
                  file=sys.stderr)
            return 1
        return 0 if summary.mutations_caught else 1
    print(f"{summary.iterations} scenario(s): {summary.packets_run} packets, "
          f"{summary.hops_checked} wire-telemetry hops, "
          f"{summary.reports_checked} reports checked")
    if summary.ok:
        print("all three levels agree")
        return 0
    failure = summary.failures[0]
    print(f"DISAGREEMENT: {failure}", file=sys.stderr)
    print("minimizing...", file=sys.stderr)
    minimizer = Minimizer()
    try:
        shrunk, shrunk_failure = minimizer.minimize(failure.scenario)
    except ValueError:
        shrunk, shrunk_failure = failure.scenario, failure
    json_path, indus_path = dump_reproducer(shrunk, shrunk_failure, args.out)
    print(f"minimal reproducer ({minimizer.evaluations} evaluations): "
          f"{indus_path} + {json_path}", file=sys.stderr)
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    from .runtime.tracecheck import TraceFormatError, run_trace_file

    name, source = _load_program_text(args.target)
    try:
        checked = check(parse(source))
        result = run_trace_file(checked, args.trace)
    except (IndusError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdict = "ACCEPTED" if result.accepted else "REJECTED"
    print(f"{name}: {verdict} after {result.hop_count} hop(s)")
    for tele_name, value in result.tele_values().items():
        print(f"  tele {tele_name} = {value}")
    for report in result.reports:
        payload = "" if report.payload is None else f" {report.payload}"
        print(f"  report from {report.block} block at switch "
              f"{report.switch_id}{payload}")
    return 0 if result.accepted else 2


def cmd_codegen(args: argparse.Namespace) -> int:
    from .compiler import compile_program
    from .compiler.driver import write_deployment
    from .net.topofile import TopologyFormatError, load_topology

    name, source = _load_program_text(args.target)
    try:
        topology = load_topology(args.topology)
    except (OSError, TopologyFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        compiled = compile_program(source, name=name)
        written = write_deployment(
            compiled, topology, args.out, forwarding=args.forwarding,
            check_mode="per_hop" if args.per_hop else "last_hop")
    except (IndusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = written.pop("__manifest__")
    for switch, path in sorted(written.items()):
        role = topology.switches[switch].role
        print(f"  {switch:12s} ({role:4s}) -> {path}")
    print(f"  manifest            -> {manifest}")
    return 0


def _aether_soak(engine: str, obs) -> None:
    """A miniature Aether soak wired to ``obs``: one slice, 2,000 bulk
    attaches, every 10th UE detached and re-attached, then a short
    paced uplink/downlink/denied replay through the UPF with the
    application-filtering checker live — each under its
    ``phase_seconds{phase=...}`` timer."""
    from .aether import (ALLOW, CELL_HOST, DENY, SERVER_HOST,
                         AetherTestbed, FilterRule)
    from .obs import profiled

    tb = AetherTestbed(engine=engine, obs=obs)
    server_ip = tb.topology.hosts[SERVER_HOST].ipv4
    tb.provision_slice("slice0", [
        FilterRule(priority=20, ip_prefix=(server_ip, 32), proto=17,
                   l4_port=(80, 80), action=ALLOW),
        FilterRule(priority=1, action=DENY),
    ])
    pairs = [(f"imsi{i}", i) for i in range(1, 2_001)]
    tb.portal.add_members("slice0", [imsi for imsi, _ in pairs])
    with profiled(obs.registry, "attach"):
        tb.attach_many(pairs)
    with profiled(obs.registry, "churn"):
        churned = pairs[::10]
        tb.detach_many([imsi for imsi, _ in churned])
        tb.attach_many(churned)
    uplink, downlink = [], []
    for n, (imsi, _) in enumerate(pairs[::20]):
        uplink.append(tb.uplink_packet(imsi, server_ip, 80))
        if n % 4 == 0:
            downlink.append(tb.downlink_packet(server_ip, imsi, 80))
        if n % 8 == 0:
            uplink.append(tb.uplink_packet(imsi, server_ip, 9999))
    with profiled(obs.registry, "replay"):
        for host, packets in ((CELL_HOST, uplink), (SERVER_HOST, downlink)):
            tb.network.attach_source(
                host, ((k * 1e-5, packet)
                       for k, packet in enumerate(packets)))
        tb.network.run()


def _traced_run(args: argparse.Namespace):
    """Run the scenario named by ``args.scenario``, batched as shipped,
    under a fully live Observability handle and return it (registry and
    hop ring populated)."""
    from .obs import Observability

    obs = Observability.enabled()
    if args.scenario == "fig12":
        from .experiments import Fig12Config, run_rtt_experiment
        from .experiments.fig12 import ALL_CHECKERS

        config = Fig12Config(duration_s=args.duration, engine=args.engine)
        run_rtt_experiment(ALL_CHECKERS, "traced", config, obs=obs)
        return obs
    if args.scenario == "aether":
        _aether_soak(args.engine, obs)
        return obs
    try:
        seed = int(args.scenario)
    except ValueError:
        raise SystemExit(
            f"error: scenario must be 'fig12', 'aether', or a difftest "
            f"seed (an integer), got {args.scenario!r}")
    from .api import compile_indus, deploy
    from .difftest.harness import build_packet
    from .difftest.scenario import gen_scenario

    scenario = gen_scenario(seed)
    compiled = compile_indus(scenario.source(), name=f"dt{seed}")
    dep = deploy(compiled, scenario=scenario, engine=args.engine, obs=obs)
    for spec in scenario.packets:
        packet = build_packet(spec, dep.topology, scenario.src_host,
                              scenario.dst_host)
        dep.network.host(scenario.src_host).send(packet)
        dep.network.run()
    return obs


def cmd_metrics(args: argparse.Namespace) -> int:
    obs = _traced_run(args)
    if args.json:
        print(obs.registry.render_json())
    else:
        print(obs.registry.render_prometheus(), end="")
    return 0


def _hop_fields(hop) -> Dict[str, object]:
    """One :class:`~repro.net.HopRecord` as plain JSON-safe fields."""
    return {"t": hop.t, "switch": hop.switch,
            "ingress_port": hop.ingress_port,
            "packet_id": hop.packet.packet_id, "length": hop.packet.length,
            "egress_ports": [port for port, _ in hop.outputs],
            "drop_reason": hop.drop_reason, "digests": hop.digests}


def cmd_trace(args: argparse.Namespace) -> int:
    hops = _traced_run(args).hops
    records = [_hop_fields(hop) for hop in hops]
    lines = [json.dumps(record) for record in records]
    if args.out:
        with open(args.out, "w") as handle:
            handle.writelines(line + "\n" for line in lines)
        print(f"wrote {len(hops)} hops ({hops.dropped} dropped by the "
              f"ring) to {args.out}", file=sys.stderr)
    if args.follow:
        packets: Dict[int, list] = {}
        for record in records:
            packets.setdefault(record["packet_id"], []).append(record)
        for pid, path in packets.items():
            print(f"packet {pid} ({len(path)} hops):")
            for r in path:
                out = (f"drop {r['drop_reason']}" if r["drop_reason"]
                       else f"-> {r['egress_ports']}")
                print(f"  {r['t'] * 1e6:10.2f}us {r['switch']:10s} "
                      f"port={r['ingress_port']} len={r['length']} "
                      f"{out} digests={r['digests']}")
    elif not args.out:
        print("\n".join(lines))
    return 0


def cmd_dump_src(args: argparse.Namespace) -> int:
    from .api import generated_source

    target = args.target
    if target.lstrip("-").isdigit():
        program: object = int(target)
        name = f"dt{target}"
    else:
        name, _source = _load_program_text(target)
        program = target
    try:
        source = generated_source(program, name=name)
    except IndusError as exc:
        print(f"{name}: error: {exc}", file=sys.stderr)
        return 1
    lines = source.splitlines()
    width = len(str(len(lines)))
    for i, line in enumerate(lines, 1):
        print(f"{i:{width}d}  {line}")
    return 0


def cmd_ltl(args: argparse.Namespace) -> int:
    from .ltl import ltl_to_indus_source, parse_formula

    try:
        formula = parse_formula(args.formula)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(ltl_to_indus_source(formula, max_trace=args.max_trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hydra runtime network verification (SIGCOMM 2023 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse + type-check an Indus program")
    p.add_argument("target", help="bundled property name or .indus file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="compile an Indus program to P4")
    p.add_argument("target", help="bundled property name or .indus file")
    p.add_argument("--summary", action="store_true",
                   help="print a resource summary instead of the P4 code")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser(
        "lint",
        help="dataflow diagnostics over a compiled checker "
             "(uninitialized reads, dead registers/tables, width "
             "truncation, ...)")
    p.add_argument("target", nargs="?", default=None,
                   help="bundled property name, .indus file, or a "
                        "difftest scenario seed (integer)")
    p.add_argument("--all", action="store_true",
                   help="lint every bundled property")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON instead of text")
    p.add_argument("--only", default="",
                   help="comma-separated rule ids to run (e.g. "
                        "IH001,IH006); default all")
    p.add_argument("--fail-on", default="error",
                   choices=["info", "warn", "warning", "error"],
                   help="exit nonzero when a finding at or above this "
                        "severity exists (default error)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("properties", help="list the property library")
    p.set_defaults(fn=cmd_properties)

    p = sub.add_parser("table1", help="reproduce Table 1")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("fig12", help="run the Figure 12 RTT experiment")
    p.add_argument("--duration", type=_positive_float, default=0.1,
                   help="simulated seconds per arm (default 0.1)")
    p.add_argument("--load", type=_positive_float, default=40.0,
                   help="background load per host pair, Mb/s (default 40)")
    p.add_argument("--checkers", default="",
                   help="comma-separated checker subset "
                        "(default: all eleven Table-1 checkers)")
    p.add_argument("--engine", default="codegen", choices=ENGINES,
                   help="switch execution engine (default codegen)")
    p.set_defaults(fn=cmd_fig12)

    p = sub.add_parser(
        "difftest",
        help="three-level differential oracle: Indus interpreter vs "
             "compiled P4 interp vs codegen, over random scenarios")
    p.add_argument("--seed", type=int, default=0,
                   help="first scenario seed (default 0)")
    p.add_argument("--iters", type=_positive_int, default=100,
                   help="number of scenarios (default 100)")
    p.add_argument("-o", "--out", default="difftest_failures",
                   help="directory for minimized reproducers "
                        "(default difftest_failures)")
    p.add_argument("--engine", default="",
                   help="comma-separated engine set the oracle "
                        "cross-checks, anchor first (default "
                        + ",".join(ENGINES) + ")")
    p.add_argument("--inject-bug", action="store_true",
                   help="mutate the compiled checker each iteration and "
                        "verify the oracle catches it")
    p.set_defaults(fn=cmd_difftest)

    p = sub.add_parser(
        "run",
        help="run a property over a JSON hop trace (property debugger)")
    p.add_argument("target", help="bundled property name or .indus file")
    p.add_argument("--trace", required=True,
                   help="trace JSON (see repro.runtime.tracecheck)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "codegen",
        help="generate per-switch P4 for a topology (the paper's "
             "compiler interface: Indus program + topology file)")
    p.add_argument("target", help="bundled property name or .indus file")
    p.add_argument("--topology", required=True,
                   help="topology JSON file (see repro.net.topofile)")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--forwarding", default="l2",
                   help="forwarding profile: l2, ipv4, srcroute, fabric, "
                        "vlan, upf (default l2)")
    p.add_argument("--per-hop", action="store_true",
                   help="per-hop checking (Section 4.3) instead of "
                        "last-hop")
    p.set_defaults(fn=cmd_codegen)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", nargs="?", default="fig12",
                       help="'fig12' (default), 'aether' (miniature "
                            "soak), or a difftest scenario seed "
                            "(integer)")
        p.add_argument("--duration", type=_positive_float, default=0.02,
                       help="simulated seconds for the fig12 scenario "
                            "(default 0.02)")
        p.add_argument("--engine", default="codegen", choices=ENGINES,
                       help="switch execution engine (default codegen)")

    p = sub.add_parser(
        "metrics",
        help="run a scenario with live metrics and print the registry "
             "(Prometheus text format)")
    add_scenario_args(p)
    p.add_argument("--json", action="store_true",
                   help="JSON dump instead of Prometheus text")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser(
        "trace",
        help="print a scenario's hop ring: one JSON line per pipeline "
             "run (t, switch, ingress port, packet_id, length, egress "
             "ports, drop reason, digests)")
    add_scenario_args(p)
    p.add_argument("--follow", action="store_true",
                   help="group the hops by packet_id and pretty-print "
                        "them (a template source's emissions share one "
                        "packet_id, so they form one group)")
    p.add_argument("-o", "--out", default="",
                   help="write the JSON lines to this file instead of "
                        "stdout and report the hops the ring dropped")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "dump-src",
        help="print the codegen engine's generated Python source for a "
             "pipeline (line-numbered, for oracle-divergence diagnosis)")
    p.add_argument("target",
                   help="bundled property name, .indus file, or a "
                        "difftest scenario seed (integer)")
    p.set_defaults(fn=cmd_dump_src)

    p = sub.add_parser("ltl", help="compile an LTLf formula to Indus")
    p.add_argument("formula", help='e.g. "G !(a & X (F a))"')
    p.add_argument("--max-trace", type=int, default=8,
                   help="monitor trace capacity (default 8)")
    p.set_defaults(fn=cmd_ltl)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
