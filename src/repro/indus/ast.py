"""Abstract syntax tree for the Indus language (Figure 4, plus the
prototype extensions the paper mentions: multi-variable ``for`` loops,
``report`` with a payload, augmented assignment, and ``elsif`` chains).

Nodes are plain dataclasses.  The type checker decorates expression nodes
with an inferred ``ty`` attribute (left as ``None`` until checking runs).
``==`` is structural equality: source spans, inferred types and a
program's source text are not compared.  Each operator is one row of
:class:`BinaryOp` / :class:`UnaryOp`, which every phase reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

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


class OpKind(enum.Enum):
    """What an operator takes and gives, which the type checker reads."""

    LOGICAL = "logical"    # bool operands, bool result
    EQUALITY = "equality"  # comparable operands (tuples too), bool result
    ORDER = "order"        # bit<n> operands, bool result
    ARITH = "arith"        # bit<n> operands, bit<n> result


def _flat(value: Any) -> Any:
    """Normalize bool vs int before equality (bool is 0/1 on the wire)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, tuple):
        return tuple(_flat(v) for v in value)
    return value


class _Operator(enum.Enum):
    """An operator declared once, as one row: its spelling (the enum
    value, also its ``TokenKind`` and ``ir.BINARY_OPS`` / ``ir.UNARY_OPS``
    key), its precedence ``level`` (higher binds tighter; every binary
    level is left-associative), its :class:`OpKind`, and its Indus
    evaluation ``eval`` over the operand values and the result width.

    The evaluation is the reference monitor's own arithmetic: the oracle
    checks the compiled pipeline against it, so it must not share P4's
    (``tests/test_indus_operators.py`` holds the two equal instead).
    """

    def __new__(cls, spelling: str, level: int, kind: OpKind,
                evaluate: Callable[..., Any]):
        op = object.__new__(cls)
        op._value_ = spelling
        op.level = level
        op.kind = kind
        op.eval = evaluate
        return op


class UnaryOp(_Operator):
    """``eval(value, width)``; every unary operator binds tighter than
    any binary one."""

    NEG = "-", 10, OpKind.ARITH, lambda v, w: -v & ((1 << w) - 1)
    BNOT = "~", 10, OpKind.ARITH, lambda v, w: ~v & ((1 << w) - 1)
    NOT = "!", 10, OpKind.LOGICAL, lambda v, w: not v


class BinaryOp(_Operator):
    """``eval(left, right, width)``.  Division and modulo by zero yield 0
    and a shift amount is taken mod the width, as in the compiled
    pipeline; ``&&`` / ``||`` are evaluated here like the rest, but the
    interpreter short-circuits them."""

    ADD = "+", 8, OpKind.ARITH, lambda l, r, w: (l + r) & ((1 << w) - 1)
    SUB = "-", 8, OpKind.ARITH, lambda l, r, w: (l - r) & ((1 << w) - 1)
    MUL = "*", 9, OpKind.ARITH, lambda l, r, w: (l * r) & ((1 << w) - 1)
    DIV = "/", 9, OpKind.ARITH, \
        lambda l, r, w: (l // r) & ((1 << w) - 1) if r else 0
    MOD = "%", 9, OpKind.ARITH, \
        lambda l, r, w: (l % r) & ((1 << w) - 1) if r else 0
    BAND = "&", 6, OpKind.ARITH, lambda l, r, w: l & r & ((1 << w) - 1)
    BOR = "|", 4, OpKind.ARITH, lambda l, r, w: (l | r) & ((1 << w) - 1)
    BXOR = "^", 5, OpKind.ARITH, lambda l, r, w: (l ^ r) & ((1 << w) - 1)
    SHL = "<<", 7, OpKind.ARITH, \
        lambda l, r, w: (l << (r % w)) & ((1 << w) - 1)
    SHR = ">>", 7, OpKind.ARITH, \
        lambda l, r, w: (l >> (r % w)) & ((1 << w) - 1)
    EQ = "==", 3, OpKind.EQUALITY, lambda l, r, w: _flat(l) == _flat(r)
    NEQ = "!=", 3, OpKind.EQUALITY, lambda l, r, w: _flat(l) != _flat(r)
    LT = "<", 3, OpKind.ORDER, lambda l, r, w: l < r
    LE = "<=", 3, OpKind.ORDER, lambda l, r, w: l <= r
    GT = ">", 3, OpKind.ORDER, lambda l, r, w: l > r
    GE = ">=", 3, OpKind.ORDER, lambda l, r, w: l >= r
    AND = "&&", 2, OpKind.LOGICAL, lambda l, r, w: bool(l) and bool(r)
    OR = "||", 1, OpKind.LOGICAL, lambda l, r, w: bool(l) or bool(r)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass
class Expr:
    """Base class for expressions; ``ty`` is filled in by the type checker."""

    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True,
                             compare=False)
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
    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True,
                             compare=False)


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
    span: SourceSpan = field(default=UNKNOWN_SPAN, compare=False)


@dataclass
class Program:
    """An Indus program: declarations plus init / telemetry / checker blocks."""

    decls: List[Decl] = field(default_factory=list)
    init_block: List[Stmt] = field(default_factory=list)
    tele_block: List[Stmt] = field(default_factory=list)
    check_block: List[Stmt] = field(default_factory=list)
    source: str = field(default="", compare=False)

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

