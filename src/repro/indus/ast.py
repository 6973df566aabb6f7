"""Abstract syntax tree for the Indus language (Figure 4, plus the
prototype extensions the paper mentions: multi-variable ``for`` loops,
``report`` with a payload, augmented assignment, and ``elsif`` chains).

Nodes are plain dataclasses.  The type checker decorates expression nodes
with an inferred ``ty`` attribute (left as ``None`` until checking runs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import SourceSpan, UNKNOWN_SPAN
from .types import Type


class VarKind(enum.Enum):
    """Variable modifiers, which determine storage and mutability.

    * ``TELE``    — travels on the packet; read-write.
    * ``SENSOR``  — switch-local register state; read-write, persists
      across packets.
    * ``HEADER``  — read-only view of packet headers / standard metadata.
    * ``CONTROL`` — read-only view of control-plane state.
    * ``LOCAL``   — per-block scratch variable (prototype extension; also
      produced by the LTLf translation).
    """

    TELE = "tele"
    SENSOR = "sensor"
    HEADER = "header"
    CONTROL = "control"
    LOCAL = "local"

    @property
    def read_only(self) -> bool:
        return self in (VarKind.HEADER, VarKind.CONTROL)


class UnaryOp(enum.Enum):
    NEG = "-"
    BNOT = "~"
    NOT = "!"


class BinaryOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    BAND = "&"
    BOR = "|"
    BXOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NEQ = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"

    @property
    def is_comparison(self) -> bool:
        return self in (BinaryOp.EQ, BinaryOp.NEQ, BinaryOp.LT,
                        BinaryOp.LE, BinaryOp.GT, BinaryOp.GE)

    @property
    def is_logical(self) -> bool:
        return self in (BinaryOp.AND, BinaryOp.OR)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr:
    """Base class for expressions; ``ty`` is filled in by the type checker."""

    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True)
    ty: Optional[Type] = field(default=None, kw_only=True, compare=False)


@dataclass
class Var(Expr):
    name: str = ""


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class TupleExpr(Expr):
    items: List[Expr] = field(default_factory=list)


@dataclass
class Unary(Expr):
    op: UnaryOp = UnaryOp.NOT
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: BinaryOp = BinaryOp.ADD
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Index(Expr):
    """``base[index]`` — array indexing or dictionary lookup."""

    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class InExpr(Expr):
    """``item in container`` — membership test over arrays and sets."""

    item: Expr = None  # type: ignore[assignment]
    container: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """Builtin function call: ``abs(e)``, ``length(xs)``, ``max``/``min``."""

    func: str = ""
    args: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@dataclass
class Stmt:
    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True)


@dataclass
class Pass(Stmt):
    pass


@dataclass
class Assign(Stmt):
    """``target = value`` where target is a variable or an array slot."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class AugAssign(Stmt):
    """``target op= value`` (prototype extension; used in Figure 2)."""

    target: Expr = None  # type: ignore[assignment]
    op: BinaryOp = BinaryOp.ADD
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Push(Stmt):
    """``xs.push(e)`` — append to a tele/sensor array."""

    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    """``if`` / ``elsif`` / ``else``.

    ``arms`` is the ordered list of (condition, body); ``orelse`` is the
    final ``else`` body (possibly empty).
    """

    arms: List[Tuple[Expr, List[Stmt]]] = field(default_factory=list)
    orelse: List[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """``for (x in xs) s`` and the multi-variable extension
    ``for (a, b in xs, ys) s`` used by Figure 2."""

    names: List[str] = field(default_factory=list)
    iterables: List[Expr] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Reject(Stmt):
    pass


@dataclass
class Report(Stmt):
    """``report;`` or ``report(payload);``."""

    payload: Optional[Expr] = None


# --------------------------------------------------------------------------
# Declarations and programs
# --------------------------------------------------------------------------

@dataclass
class Decl:
    """A top-level variable declaration.

    ``annotation`` is the forwarding-program binding for header variables
    (the ``@ hdr.ipv4.src_addr`` form described in Section 4.1); ``init``
    is the optional initializer expression.
    """

    kind: VarKind
    ty: Type
    name: str
    init: Optional[Expr] = None
    annotation: Optional[str] = None
    span: SourceSpan = UNKNOWN_SPAN


@dataclass
class Program:
    """An Indus program: declarations plus init / telemetry / checker blocks."""

    decls: List[Decl] = field(default_factory=list)
    init_block: List[Stmt] = field(default_factory=list)
    tele_block: List[Stmt] = field(default_factory=list)
    check_block: List[Stmt] = field(default_factory=list)
    source: str = ""

    def decl(self, name: str) -> Optional[Decl]:
        """Look up a declaration by name, or ``None``."""
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def decls_of_kind(self, kind: VarKind) -> List[Decl]:
        return [d for d in self.decls if d.kind is kind]

    @property
    def blocks(self) -> List[Tuple[str, List[Stmt]]]:
        return [
            ("init", self.init_block),
            ("telemetry", self.tele_block),
            ("checker", self.check_block),
        ]


# Builtin read-only names available in every Indus program without
# declaration.  ``last_hop`` appears in Figure 3; the rest round out the
# obvious per-hop context a monitor needs.
BUILTIN_HEADERS = ("last_hop", "first_hop", "packet_length", "hop_count", "switch_id")
