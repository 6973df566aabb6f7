"""Grammar-directed Indus program generators for differential testing.

Two tiers live here:

* The original fuzz grammar (``gen_program`` / ``gen_multihop_program``),
  shared by the difftest subsystem and the test suite.  These
  functions are seed-stable: the same seed must keep producing the same
  program, because test parametrizations pin seeds.
* The oracle grammar (:func:`gen_oracle_program`): a richer,
  *structured* generator for the three-level differential oracle
  (:mod:`repro.difftest.harness`).  It returns a :class:`GenProgram`
  whose blocks are lists of statement strings, so the minimizer can
  drop statements and shrink constants without re-parsing source text.

The oracle grammar deliberately stays inside the semantics the three
levels agree on by construction: uniform ``bit<16>`` arithmetic
(including ``/ % << >>`` with the shared div-by-zero-is-zero and
shift-mod-width rules), dense ``push``-only telemetry arrays, and no
``sensor`` variables (the reference monitor replays one packet at a
time against fresh state, while sensors persist across packets).
Every generated checker ends by *exporting* the final telemetry
through ``report`` statements — that is how final telemetry becomes
observable at all three levels through one channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Union

VARS = ["v0", "v1", "v2"]
HDRS = ["sport", "dport"]


# ---------------------------------------------------------------------------
# Original shared fuzz grammar (seed-stable)
# ---------------------------------------------------------------------------

def gen_expr(rng, depth=0):
    """A bit<16> expression over tele vars, header vars, literals."""
    if depth >= 3 or rng.random() < 0.4:
        choice = rng.randrange(3)
        if choice == 0:
            return str(rng.randrange(0, 1 << 16))
        if choice == 1:
            return rng.choice(VARS)
        return rng.choice(HDRS)
    op = rng.choice(["+", "-", "*", "&", "|", "^"])
    return (f"({gen_expr(rng, depth + 1)} {op} "
            f"{gen_expr(rng, depth + 1)})")


def gen_cond(rng, depth=0):
    if depth < 2 and rng.random() < 0.3:
        joiner = rng.choice(["&&", "||"])
        return (f"({gen_cond(rng, depth + 1)} {joiner} "
                f"{gen_cond(rng, depth + 1)})")
    cmp_op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return f"{gen_expr(rng, 2)} {cmp_op} {gen_expr(rng, 2)}"


def gen_stmts(rng, count, depth=0):
    lines = []
    for _ in range(count):
        if depth < 2 and rng.random() < 0.25:
            inner = gen_stmts(rng, rng.randint(1, 2), depth + 1)
            lines.append(f"if ({gen_cond(rng)}) {{ {' '.join(inner)} }}")
        else:
            lines.append(f"{rng.choice(VARS)} = {gen_expr(rng)};")
    return lines


def gen_program(seed):
    rng = random.Random(seed)
    decls = [f"tele bit<16> {v} = {rng.randrange(0, 1 << 16)};"
             for v in VARS]
    decls.append("header bit<16> sport @ udp.src_port;")
    decls.append("header bit<16> dport @ udp.dst_port;")
    init = gen_stmts(rng, rng.randint(0, 3))
    tele = gen_stmts(rng, rng.randint(0, 3))
    checker = gen_stmts(rng, rng.randint(0, 2))
    checker.append(f"if ({gen_cond(rng)}) {{ reject; }}")
    return "\n".join(
        decls
        + ["{", *init, "}"]
        + ["{", *tele, "}"]
        + ["{", *checker, "}"]
    )


def gen_multihop_program(seed):
    """A program that accumulates telemetry across hops: pushes an
    expression per hop and checks the collected trace at the edge."""
    rng = random.Random(seed)
    decls = [f"tele bit<16> {v} = {rng.randrange(0, 1 << 16)};"
             for v in VARS]
    decls.append("tele bit<16>[4] trace;")
    decls.append("header bit<16> sport @ udp.src_port;")
    decls.append("header bit<16> dport @ udp.dst_port;")
    init = gen_stmts(rng, rng.randint(0, 2))
    tele = gen_stmts(rng, rng.randint(0, 2))
    tele.append(f"trace.push({gen_expr(rng)});")
    checker = [
        f"if ({gen_expr(rng, 2)} in trace) {{ {VARS[0]} = 1; }}",
        "for (t in trace) { " + f"{VARS[1]} = {VARS[1]} + t;" + " }",
        f"if ({gen_cond(rng)}) {{ reject; }}",
    ]
    return "\n".join(
        decls
        + ["{", *init, "}"]
        + ["{", *tele, "}"]
        + ["{", *checker, "}"]
    )


# ---------------------------------------------------------------------------
# Oracle grammar: structured programs for the three-level harness
# ---------------------------------------------------------------------------

ARRAY_NAME = "trace"
ARRAY_CAPACITY = 4
CONTROL_NAME = "c0"


@dataclass
class GenProgram:
    """A generated program as structured blocks (minimizer-friendly)."""

    decls: List[str] = field(default_factory=list)
    init: List[str] = field(default_factory=list)
    tele: List[str] = field(default_factory=list)
    checker: List[str] = field(default_factory=list)
    has_array: bool = False
    has_control: bool = False

    def render(self) -> str:
        return "\n".join(
            self.decls
            + ["{", *self.init, "}"]
            + ["{", *self.tele, "}"]
            + ["{", *self.checker, "}"]
        )

    def copy(self) -> "GenProgram":
        return GenProgram(decls=list(self.decls), init=list(self.init),
                          tele=list(self.tele), checker=list(self.checker),
                          has_array=self.has_array,
                          has_control=self.has_control)

    def to_json(self) -> dict:
        return {
            "decls": self.decls, "init": self.init, "tele": self.tele,
            "checker": self.checker, "has_array": self.has_array,
            "has_control": self.has_control,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GenProgram":
        return cls(decls=list(data["decls"]), init=list(data["init"]),
                   tele=list(data["tele"]), checker=list(data["checker"]),
                   has_array=bool(data["has_array"]),
                   has_control=bool(data["has_control"]))


class _OracleGrammar:
    """One sampling of the oracle grammar (holds the feature flags)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.use_array = rng.random() < 0.5
        self.use_control = rng.random() < 0.4
        self.use_inport = rng.random() < 0.35

    # -- expressions (everything is bit<16>) ----------------------------

    def expr(self, depth=0) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.4:
            atoms = [lambda: str(rng.randrange(0, 1 << 16)),
                     lambda: rng.choice(VARS),
                     lambda: rng.choice(HDRS)]
            if self.use_control:
                atoms.append(lambda: CONTROL_NAME)
            return rng.choice(atoms)()
        roll = rng.random()
        if roll < 0.12:
            fn = rng.choice(["min", "max"])
            return f"{fn}({self.expr(depth + 1)}, {self.expr(depth + 1)})"
        op = rng.choice(["+", "-", "*", "&", "|", "^",
                         "/", "%", "<<", ">>"])
        return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"

    def cond(self, depth=0, in_checker=False, in_init=False) -> str:
        rng = self.rng
        if depth < 2 and rng.random() < 0.3:
            joiner = rng.choice(["&&", "||"])
            return (f"({self.cond(depth + 1, in_checker, in_init)} {joiner} "
                    f"{self.cond(depth + 1, in_checker, in_init)})")
        roll = rng.random()
        if roll < 0.08:
            # last_hop is a typechecker error inside the init block (it
            # is resolved at egress, after init has already run).
            hops = ["first_hop"] if in_init else ["first_hop", "last_hop"]
            return rng.choice(hops)
        if roll < 0.14:
            return f"switch_id == {rng.randrange(1, 6)}"
        if roll < 0.18 and self.use_inport:
            return f"iport == {rng.randrange(1, 12)}"
        if roll < 0.26 and self.use_array and in_checker:
            return f"{self.expr(2)} in {ARRAY_NAME}"
        cmp_op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return f"{self.expr(2)} {cmp_op} {self.expr(2)}"

    # -- statements -----------------------------------------------------

    def stmts(self, count, depth=0, in_checker=False,
              in_init=False) -> List[str]:
        rng = self.rng
        lines = []
        for _ in range(count):
            roll = rng.random()
            if depth < 2 and roll < 0.22:
                inner = self.stmts(rng.randint(1, 2), depth + 1, in_checker,
                                   in_init)
                lines.append(f"if ({self.cond(0, in_checker, in_init)}) "
                             f"{{ {' '.join(inner)} }}")
            elif roll < 0.34:
                op = rng.choice(["+=", "-="])
                lines.append(f"{rng.choice(VARS)} {op} {self.expr()};")
            else:
                lines.append(f"{rng.choice(VARS)} = {self.expr()};")
        return lines


def gen_oracle_program(seed_or_rng: Union[int, random.Random]) -> GenProgram:
    """Generate one structured program for the three-level oracle."""
    rng = (seed_or_rng if isinstance(seed_or_rng, random.Random)
           else random.Random(seed_or_rng))
    g = _OracleGrammar(rng)
    out = GenProgram(has_array=g.use_array, has_control=g.use_control)
    out.decls = [f"tele bit<16> {v} = {rng.randrange(0, 1 << 16)};"
                 for v in VARS]
    if g.use_array:
        out.decls.append(f"tele bit<16>[{ARRAY_CAPACITY}] {ARRAY_NAME};")
    out.decls.append("header bit<16> sport @ udp.src_port;")
    out.decls.append("header bit<16> dport @ udp.dst_port;")
    if g.use_inport:
        out.decls.append(
            "header bit<9> iport @ standard_metadata.ingress_port;")
    if g.use_control:
        out.decls.append(f"control bit<16> {CONTROL_NAME};")

    out.init = g.stmts(rng.randint(0, 3), in_init=True)
    out.tele = g.stmts(rng.randint(0, 3))
    if g.use_array:
        out.tele.append(f"{ARRAY_NAME}.push({g.expr()});")
    if rng.random() < 0.3:
        out.tele.append(f"if ({g.cond()}) {{ report({rng.choice(VARS)}); }}")

    out.checker = g.stmts(rng.randint(0, 2), in_checker=True)
    if g.use_array:
        out.checker.append(
            f"if ({g.expr(2)} in {ARRAY_NAME}) {{ {VARS[0]} = 1; }}")
        out.checker.append(
            "for (t in " + ARRAY_NAME + ") { "
            f"{VARS[1]} = {VARS[1]} + t;" + " }")
    if rng.random() < 0.8:
        out.checker.append(f"if ({g.cond(0, True)}) {{ reject; }}")
    # Export the final telemetry: these reports are the channel through
    # which the oracle compares final state across all three levels.
    out.checker.append(f"report(({VARS[0]}, {VARS[1]}, {VARS[2]}));")
    if g.use_array:
        out.checker.append(f"for (t in {ARRAY_NAME}) {{ report(t); }}")
    return out
