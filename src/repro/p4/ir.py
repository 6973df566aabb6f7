"""A P4-16–like intermediate representation.

The Indus compiler targets this IR; forwarding programs (source routing,
the Aether fabric/UPF) are written directly in it.  Two consumers share
it: :mod:`repro.p4.pretty` renders it to P4-16 text (for the generated
lines-of-code measurements of Table 1 and human inspection), and
:mod:`repro.p4.bmv2` executes it on packets (standing in for the bmv2
behavioral model).

Conventions:

* Field paths are dotted strings rooted at ``hdr``, ``meta``,
  ``standard_metadata``, or ``param`` (action data), e.g.
  ``hdr.ipv4.src_addr``.
* Header *bind names* (the name after ``hdr.``) may differ from the
  header type name — the Aether parser binds two IPv4 headers as
  ``ipv4`` and ``inner_ipv4``.
* Header stacks are modeled by indexed bind names: ``srcRoute0``,
  ``srcRoute1``, … (the compiler's loop unrolling produces exactly this).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, FrozenSet, List, NamedTuple,
                    Optional, Sequence, Set, Tuple, Union)

from ..indus.errors import SourceSpan, UNKNOWN_SPAN
from ..net.packet import HeaderType


class P4RuntimeError(Exception):
    """Raised on malformed control-plane operations or broken programs."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P4Expr:
    """Base class for IR expressions.

    Every expression carries a ``span`` pointing back at the Indus source
    it was lowered from (:data:`~repro.indus.errors.UNKNOWN_SPAN` for
    synthesized nodes and hand-written forwarding programs).  The span is
    provenance only: it never participates in equality or hashing, so two
    structurally identical expressions from different source lines still
    compare equal.
    """

    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True,
                             compare=False, repr=False)


@dataclass(frozen=True)
class Const(P4Expr):
    value: int
    width: int = 32

    def __str__(self) -> str:
        return f"{self.width}w{self.value}"


@dataclass(frozen=True)
class FieldRef(P4Expr):
    """A reference to a field: ``hdr.ipv4.ttl``, ``meta.tenant``, …"""

    path: str

    def __str__(self) -> str:
        return self.path


@dataclass(frozen=True)
class ValidRef(P4Expr):
    """``hdr.<bind>.isValid()``"""

    header: str

    def __str__(self) -> str:
        return f"hdr.{self.header}.isValid()"


@dataclass(frozen=True)
class UnExpr(P4Expr):
    op: str  # '!', '~', '-'
    operand: P4Expr
    # Result width for '~' and '-'; None means "derive from the operand"
    # (see :func:`unexpr_width`).  '!' always yields a 1-bit boolean.
    width: Optional[int] = None


@dataclass(frozen=True)
class BinExpr(P4Expr):
    op: str  # arithmetic/bitwise/comparison/logical, plus 'absdiff' 'min' 'max'
    left: P4Expr
    right: P4Expr
    width: int = 32  # result width for arithmetic ops


def const_bool(value: bool) -> Const:
    return Const(1 if value else 0, 1)


def unexpr_width(expr: UnExpr) -> int:
    """The result width of a unary '~'/'-': the explicit width when the
    builder supplied one, otherwise the operand's declared width (falling
    back to 32 for field references, whose width lives in the header
    declaration rather than the expression tree)."""
    if expr.width is not None:
        return expr.width
    operand = expr.operand
    if isinstance(operand, Const):
        return operand.width
    if isinstance(operand, BinExpr):
        return operand.width
    if isinstance(operand, UnExpr):
        return result_width(operand)
    return 32


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

#: How wide an operator's result is (:func:`result_width`).
BOOL, MASKED, UNMASKED = "bool", "masked", "unmasked"


@dataclass(frozen=True)
class Operator:
    """One P4 operator, declared once for every engine and analysis.

    ``fn`` is the reference semantics over unsigned operand values and
    the result width — ``fn(left, right, width)``, a unary operator's
    ``fn(value, width)`` — that the interpreter and the constant folder
    call; ``template`` spells the same computation as the emitter's
    Python source (``{l}``/``{r}`` or ``{o}`` the operands, ``{m}`` the
    result mask, ``{w}`` the width; ``_div``/``_mod``/``_absdiff`` are
    :data:`HELPERS`); ``p4`` is its P4-16 text.  ``&&``/``||`` are
    declared like the rest, but every evaluator short-circuits them.
    """

    result: str
    fn: Callable[..., int]
    template: str
    p4: str


def _div(left: int, right: int, mask: int) -> int:
    return (left // right) & mask if right else 0


def _mod(left: int, right: int, mask: int) -> int:
    return (left % right) & mask if right else 0


def _absdiff(left: int, right: int, mask: int) -> int:
    # abs over two's complement of a (left - right) difference:
    # min(d, 2^w - d), matching the Indus interpreter's abs().
    diff = (left - right) & mask
    return min(diff, (-diff) & mask)


#: The functions operator templates call, by the name they call them.
HELPERS: Dict[str, Callable[[int, int, int], int]] = {
    "_div": _div, "_mod": _mod, "_absdiff": _absdiff}


def _masked(sym: str, fn: Callable[[int, int, int], int]) -> Operator:
    return Operator(MASKED, fn, f"(({{l}} {sym} {{r}}) & {{m}})",
                    f"({{l}} {sym} {{r}})")


def _compare(sym: str, fn: Callable[[int, int, int], int]) -> Operator:
    return Operator(BOOL, fn, f"(1 if {{l}} {sym} {{r}} else 0)",
                    f"({{l}} {sym} {{r}})")


#: Division and modulo by zero yield 0; a shift amount is taken mod
#: the width; ``absdiff`` is ``|left - right|`` in two's complement.
BINARY_OPS: Dict[str, Operator] = {
    "+": _masked("+", lambda l, r, w: (l + r) & ((1 << w) - 1)),
    "-": _masked("-", lambda l, r, w: (l - r) & ((1 << w) - 1)),
    "*": _masked("*", lambda l, r, w: (l * r) & ((1 << w) - 1)),
    "&": _masked("&", lambda l, r, w: (l & r) & ((1 << w) - 1)),
    "|": _masked("|", lambda l, r, w: (l | r) & ((1 << w) - 1)),
    "^": _masked("^", lambda l, r, w: (l ^ r) & ((1 << w) - 1)),
    "/": Operator(MASKED, lambda l, r, w: _div(l, r, (1 << w) - 1),
                  "_div({l}, {r}, {m})", "({l} / {r})"),
    "%": Operator(MASKED, lambda l, r, w: _mod(l, r, (1 << w) - 1),
                  "_mod({l}, {r}, {m})", "({l} % {r})"),
    "<<": Operator(MASKED, lambda l, r, w: (l << (r % w)) & ((1 << w) - 1),
                   "(({l} << ({r} % {w})) & {m})", "({l} << {r})"),
    ">>": Operator(MASKED, lambda l, r, w: (l >> (r % w)) & ((1 << w) - 1),
                   "(({l} >> ({r} % {w})) & {m})", "({l} >> {r})"),
    "==": _compare("==", lambda l, r, w: 1 if l == r else 0),
    "!=": _compare("!=", lambda l, r, w: 1 if l != r else 0),
    "<": _compare("<", lambda l, r, w: 1 if l < r else 0),
    "<=": _compare("<=", lambda l, r, w: 1 if l <= r else 0),
    ">": _compare(">", lambda l, r, w: 1 if l > r else 0),
    ">=": _compare(">=", lambda l, r, w: 1 if l >= r else 0),
    "&&": Operator(BOOL, lambda l, r, w: 1 if l and r else 0,
                   "(1 if {l} and {r} else 0)", "({l} && {r})"),
    "||": Operator(BOOL, lambda l, r, w: 1 if l or r else 0,
                   "(1 if {l} or {r} else 0)", "({l} || {r})"),
    "absdiff": Operator(MASKED, lambda l, r, w: _absdiff(l, r, (1 << w) - 1),
                        "_absdiff({l}, {r}, {m})", "abs_diff({l}, {r})"),
    "min": Operator(UNMASKED, lambda l, r, w: min(l, r),
                    "min({l}, {r})", "min({l}, {r})"),
    "max": Operator(UNMASKED, lambda l, r, w: max(l, r),
                    "max({l}, {r})", "max({l}, {r})"),
}

UNARY_OPS: Dict[str, Operator] = {
    "!": Operator(BOOL, lambda v, w: 0 if v else 1,
                  "(0 if {o} else 1)", "!({o})"),
    "~": Operator(MASKED, lambda v, w: ~v & ((1 << w) - 1),
                  "(~{o} & {m})", "~({o})"),
    "-": Operator(MASKED, lambda v, w: -v & ((1 << w) - 1),
                  "(-{o} & {m})", "-({o})"),
}


def result_width(expr: Union[UnExpr, BinExpr]) -> Optional[int]:
    """How wide ``expr``'s result is: 1 for a boolean, the declared width
    for a masked operator (derived for a unary one: :func:`unexpr_width`),
    ``None`` for an unmasked one (``min``/``max``: the wider operand)."""
    unary = isinstance(expr, UnExpr)
    op = (UNARY_OPS if unary else BINARY_OPS).get(expr.op)
    result = MASKED if op is None else op.result
    if result == BOOL:
        return 1
    if result == UNMASKED:
        return None
    return unexpr_width(expr) if unary else expr.width


def map_fields(expr: P4Expr, fn: Callable[[FieldRef], P4Expr]) -> P4Expr:
    """``expr`` with every field reference replaced by ``fn`` of it.  A
    subtree ``fn`` leaves alone is returned as is (identity), a rebuilt
    node keeps its span; nothing is edited in place."""
    if isinstance(expr, FieldRef):
        return fn(expr)
    if isinstance(expr, UnExpr):
        operand = map_fields(expr.operand, fn)
        return (expr if operand is expr.operand
                else replace(expr, operand=operand))
    if isinstance(expr, BinExpr):
        left, right = map_fields(expr.left, fn), map_fields(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return replace(expr, left=left, right=right)
    return expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class P4Stmt:
    """Base class for IR statements.

    Like :class:`P4Expr`, statements carry a provenance ``span``
    (excluded from equality) mapping compiled IR back to Indus source.
    """

    span: SourceSpan = field(default=UNKNOWN_SPAN, kw_only=True,
                             compare=False, repr=False)


@dataclass
class AssignStmt(P4Stmt):
    dest: str
    value: P4Expr


@dataclass
class IfStmt(P4Stmt):
    cond: P4Expr
    then_body: List[P4Stmt] = field(default_factory=list)
    else_body: List[P4Stmt] = field(default_factory=list)


@dataclass
class ApplyTable(P4Stmt):
    """Apply a table; optional hit/miss bodies (``if (t.apply().hit)``)."""

    table: str
    hit_body: List["P4Stmt"] = field(default_factory=list)
    miss_body: List["P4Stmt"] = field(default_factory=list)


@dataclass
class RegisterRead(P4Stmt):
    dest: str
    register: str
    index: P4Expr


@dataclass
class RegisterWrite(P4Stmt):
    register: str
    index: P4Expr
    value: P4Expr


@dataclass
class Digest(P4Stmt):
    """Send a report to the control plane (bmv2 digest / Tofino mirror)."""

    name: str
    fields: List[P4Expr] = field(default_factory=list)


@dataclass
class SetValid(P4Stmt):
    header: str


@dataclass
class SetInvalid(P4Stmt):
    header: str


@dataclass
class MarkToDrop(P4Stmt):
    pass


@dataclass
class PopSourceRoute(P4Stmt):
    """Pop the top source-route stack entry (forwarding-program primitive)."""

    pass


@dataclass
class ExternCall(P4Stmt):
    """A substrate-specific primitive, value-in/value-out.

    ``fn(*values)`` receives the evaluated ``args`` and returns one
    ``int`` per entry of ``dests`` (a bare ``int`` for a single dest,
    a tuple otherwise); each result is written to its dest with the
    usual width mask.  ``fn`` sees nothing but its arguments, so every
    extern is a pure function of the declared reads: the engines, the
    SSA passes and flow fast-forwarding rely on that.
    """

    name: str
    fn: Callable[..., Union[int, Tuple[int, ...]]]
    args: List[P4Expr] = field(default_factory=list)
    dests: List[str] = field(default_factory=list)

    def call(self, *values: int) -> Tuple[int, ...]:
        """Run ``fn`` and return one result per dest (both engines)."""
        result = self.fn(*values)
        results = result if isinstance(result, tuple) else (result,)
        if len(results) != len(self.dests):
            raise P4RuntimeError(
                f"extern {self.name!r} returned {len(results)} value(s) "
                f"for {len(self.dests)} dest(s)")
        return results


# ---------------------------------------------------------------------------
# Actions and tables
# ---------------------------------------------------------------------------

@dataclass
class Action:
    """A P4 action: parameters (action data) plus a statement body."""

    name: str
    params: List[Tuple[str, int]] = field(default_factory=list)  # (name, width)
    body: List[P4Stmt] = field(default_factory=list)


class MatchKind(enum.Enum):
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"


@dataclass
class TableKey:
    path: str
    kind: MatchKind = MatchKind.EXACT


@dataclass
class Table:
    """A match-action table declaration."""

    name: str
    keys: List[TableKey] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)
    default_action: Optional[Tuple[str, List[int]]] = None  # (action, args)
    size: int = 1024


# Runtime match specs mirror P4Runtime:
#   EXACT   -> int
#   TERNARY -> (value, mask)
#   LPM     -> (prefix, prefix_len)
#   RANGE   -> (lo, hi)
MatchSpec = Union[int, Tuple[int, int]]


_set_slot = object.__setattr__


class TableEntry:
    """An installed table entry (control-plane state): an immutable
    value, so one entry may be installed on several switches at once.

    ``match`` and ``args`` are tuples whatever sequence they were given
    as.  A million-session control plane holds millions of these, and
    the cyclic collector walks every container it tracks on each full
    collection: CPython stops tracking a tuple of ints (or of such
    tuples) at its first collection and never stops tracking a list, so
    the representation — slots, no ``__dict__``, tuples — is what keeps
    an entry at one tracked object.  (Hand-written rather than
    ``dataclass(slots=True)``, which needs Python 3.10.)
    """

    __slots__ = ("match", "action", "args", "priority")

    match: Tuple[MatchSpec, ...]
    action: str
    args: Tuple[int, ...]
    priority: int

    def __init__(self, match: Sequence[MatchSpec], action: str,
                 args: Optional[Sequence[int]] = None, priority: int = 0):
        _set_slot(self, "match", tuple(match))
        _set_slot(self, "action", action)
        _set_slot(self, "args", tuple(args) if args else ())
        _set_slot(self, "priority", priority)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TableEntry is immutable (cannot set {name!r})")

    def _fields(self) -> Tuple:
        return (self.match, self.action, self.args, self.priority)

    def __reduce__(self) -> Tuple:  # copy/pickle go through __init__
        return (TableEntry, self._fields())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is TableEntry:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        return (f"TableEntry(match={self.match!r}, action={self.action!r}, "
                f"args={self.args!r}, priority={self.priority!r})")

    def matches(self, table: Table, key_values: Sequence[int]) -> bool:
        for key, spec, value in zip(table.keys, self.match, key_values):
            if key.kind is MatchKind.EXACT:
                if value != spec:
                    return False
            elif key.kind is MatchKind.TERNARY:
                tvalue, tmask = spec  # type: ignore[misc]
                if (value & tmask) != (tvalue & tmask):
                    return False
            elif key.kind is MatchKind.LPM:
                prefix, plen = spec  # type: ignore[misc]
                width = 32
                mask = ((1 << plen) - 1) << (width - plen) if plen else 0
                if (value & mask) != (prefix & mask):
                    return False
            elif key.kind is MatchKind.RANGE:
                lo, hi = spec  # type: ignore[misc]
                if not lo <= value <= hi:
                    return False
        return True


# ---------------------------------------------------------------------------
# Parser specification
# ---------------------------------------------------------------------------

@dataclass
class Extract:
    """Extract one header from the wire and bind it to ``bind``."""

    bind: str
    htype: HeaderType


@dataclass
class ExtractStack:
    """Extract a header stack: keep extracting while ``loop_field`` == 0.

    Bind names are ``{bind}{i}`` for i = 0..max_depth-1, mirroring the
    unrolled representation the Indus compiler uses for lists.
    """

    bind: str
    htype: HeaderType
    loop_field: str  # e.g. 'bos'
    max_depth: int = 8


@dataclass
class Transition:
    """Select the next state on a field value (None value = default)."""

    next_state: str
    field_path: Optional[str] = None
    value: Optional[int] = None


@dataclass
class ParserState:
    name: str
    extracts: List[Union[Extract, ExtractStack]] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)


@dataclass
class ParserSpec:
    """A declarative parse graph starting at ``start``."""

    states: List[ParserState] = field(default_factory=list)
    start: str = "start"

    def state(self, name: str) -> ParserState:
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(f"no parser state {name!r}")


ACCEPT = "accept"
REJECT_STATE = "reject"


# ---------------------------------------------------------------------------
# Registers and the program
# ---------------------------------------------------------------------------

@dataclass
class RegisterDef:
    name: str
    width: int
    size: int = 1


@dataclass
class P4Program:
    """A complete P4 program in IR form."""

    name: str
    parser: ParserSpec = field(default_factory=ParserSpec)
    metadata: List[Tuple[str, int]] = field(default_factory=list)
    registers: List[RegisterDef] = field(default_factory=list)
    actions: Dict[str, Action] = field(default_factory=dict)
    tables: Dict[str, Table] = field(default_factory=dict)
    ingress: List[P4Stmt] = field(default_factory=list)
    egress: List[P4Stmt] = field(default_factory=list)
    # Deparser emit order over bind names; invalid binds are skipped and
    # any unparsed tail is appended.
    emit_order: List[str] = field(default_factory=list)
    # The modules generated from this program (:mod:`repro.p4.codegen`):
    # (default-action names, instrumented) -> (source, code, plan), so
    # the engines of the switches running it emit and compile each
    # once.  No part of the program's value; the linker's clone starts
    # with none.
    code: Dict[tuple, tuple] = field(default_factory=dict, compare=False,
                                     repr=False)

    def add_action(self, action: Action) -> Action:
        if action.name in self.actions:
            raise ValueError(f"duplicate action {action.name!r}")
        self.actions[action.name] = action
        return action

    def add_table(self, table: Table) -> Table:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table
        return table

    def add_register(self, reg: RegisterDef) -> RegisterDef:
        self.registers.append(reg)
        return reg

    def metadata_width(self) -> int:
        return sum(width for _, width in self.metadata)

    def header_types(self) -> List[HeaderType]:
        """All header types reachable from the parser, deduplicated."""
        seen: Dict[str, HeaderType] = {}
        for state in self.parser.states:
            for ex in state.extracts:
                seen.setdefault(ex.htype.name, ex.htype)
        return list(seen.values())

    def bind_types(self) -> Dict[str, HeaderType]:
        """Map bind name -> header type (stacks expanded to slots)."""
        binds: Dict[str, HeaderType] = {}
        for state in self.parser.states:
            for ex in state.extracts:
                if isinstance(ex, Extract):
                    binds[ex.bind] = ex.htype
                else:
                    for i in range(ex.max_depth):
                        binds[f"{ex.bind}{i}"] = ex.htype
        return binds


def walk_stmts(stmts: Sequence[P4Stmt]):
    """Yield every statement in a body, recursing into if-branches."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, ApplyTable):
            yield from walk_stmts(stmt.hit_body)
            yield from walk_stmts(stmt.miss_body)


def walk_exprs(expr: P4Expr):
    """Yield every sub-expression of ``expr`` including itself."""
    yield expr
    if isinstance(expr, UnExpr):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, BinExpr):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)


def expr_reads(expr: P4Expr) -> Set[str]:
    """Every location an expression reads: field paths plus
    ``hdr.<bind>.$valid`` tokens for validity tests."""
    reads: Set[str] = set()
    _add_reads(expr, reads)
    return reads


def _add_reads(expr: P4Expr, reads: Set[str]) -> None:
    if isinstance(expr, FieldRef):
        reads.add(expr.path)
    elif isinstance(expr, ValidRef):
        reads.add(f"hdr.{expr.header}.$valid")
    elif isinstance(expr, UnExpr):
        _add_reads(expr.operand, reads)
    elif isinstance(expr, BinExpr):
        _add_reads(expr.left, reads)
        _add_reads(expr.right, reads)


#: The one statement switch: per statement kind, the attributes holding
#: the expressions it evaluates itself (one expression, or a list of
#: them).  Nested bodies are statements of their own (:func:`walk_stmts`).
_EXPR_ATTRS: Dict[type, Tuple[str, ...]] = {
    AssignStmt: ("value",),
    IfStmt: ("cond",),
    RegisterRead: ("index",),
    RegisterWrite: ("index", "value"),
    Digest: ("fields",),
    ExternCall: ("args",),
}


def stmt_exprs(stmt: P4Stmt) -> List[P4Expr]:
    """The expressions ``stmt`` evaluates (shallow, in evaluation order)."""
    out: List[P4Expr] = []
    for attr in _EXPR_ATTRS.get(type(stmt), ()):
        held = getattr(stmt, attr)
        out.extend(held if isinstance(held, list) else [held])
    return out


#: The locations besides fields that statements define and use: a
#: register's contents, the report channel, a header's validity bit, a
#: source-route stack slot (a pop shifts every one).  The drop flag is
#: the field both engines write, ``standard_metadata.drop``.
DIGEST = "$digest"
DROP = "standard_metadata.drop"
SRC_ROUTE_SLOTS = tuple(f"hdr.srcRoute{i}.$all" for i in range(8))


def _reg(stmt: Any) -> Tuple[str, ...]:
    return (f"reg.{stmt.register}",)


def _valid_bit(stmt: Any) -> Tuple[str, ...]:
    return (f"hdr.{stmt.header}.$valid",)


def _nothing(stmt: Any) -> Tuple[str, ...]:
    return ()


_PURE = (_nothing, _nothing)


#: The one effect declaration (after Krakatau's per-op
#: ``has_side_effects``): per statement kind, the locations it defines
#: and those it uses besides what its expressions read.  A kind not
#: listed defines and uses nothing of its own: an ``IfStmt``'s effects
#: are its arms', an ``ApplyTable``'s its table's actions' (the caller
#: has the table).
_EFFECTS: Dict[type, Tuple[Callable[[Any], Tuple[str, ...]],
                           Callable[[Any], Tuple[str, ...]]]] = {
    AssignStmt: (lambda stmt: (stmt.dest,), _nothing),
    RegisterRead: (lambda stmt: (stmt.dest,), _reg),
    RegisterWrite: (_reg, _nothing),
    Digest: (lambda stmt: (DIGEST,), _nothing),
    SetValid: (_valid_bit, _nothing),
    SetInvalid: (_valid_bit, _nothing),
    MarkToDrop: (lambda stmt: (DROP,), _nothing),
    PopSourceRoute: (lambda stmt: SRC_ROUTE_SLOTS,
                     lambda stmt: SRC_ROUTE_SLOTS),
    ExternCall: (lambda stmt: tuple(stmt.dests), _nothing),
}


class Effect(NamedTuple):
    """One statement's declared effect: the locations it defines (in
    declaration order) and every location it uses, expression reads
    included; the flags are read off them."""

    defs: Tuple[str, ...]
    uses: FrozenSet[str]

    @property
    def reads_regs(self) -> bool:
        return any(use.startswith("reg.") for use in self.uses)

    @property
    def writes_regs(self) -> bool:
        return any(loc.startswith("reg.") for loc in self.defs)

    @property
    def emits_digest(self) -> bool:
        return DIGEST in self.defs


def stmt_defs(stmt: P4Stmt) -> Tuple[str, ...]:
    """The locations :data:`_EFFECTS` declares ``stmt`` defines."""
    return _EFFECTS.get(type(stmt), _PURE)[0](stmt)


def stmt_effect(stmt: P4Stmt) -> Effect:
    """The effect :data:`_EFFECTS` declares for ``stmt`` (shallow: a
    nested body's statements have their own)."""
    defs, uses = _EFFECTS.get(type(stmt), _PURE)
    reads = set(uses(stmt))
    for expr in stmt_exprs(stmt):
        _add_reads(expr, reads)
    return Effect(defs(stmt), frozenset(reads))


def map_exprs(stmt: P4Stmt, fn: Callable[[P4Expr], P4Expr]) -> bool:
    """Replace each expression ``stmt`` holds with ``fn`` of it, in
    place; an attribute ``fn`` leaves alone (by identity) is not
    reassigned.  Returns whether anything changed."""
    changed = False
    for attr in _EXPR_ATTRS.get(type(stmt), ()):
        held = getattr(stmt, attr)
        if isinstance(held, list):
            new = [fn(expr) for expr in held]
            same = all(n is o for n, o in zip(new, held))
        else:
            new = fn(held)
            same = new is held
        if not same:
            setattr(stmt, attr, new)
            changed = True
    return changed


def clone_stmts(stmts: Sequence[P4Stmt]) -> List[P4Stmt]:
    """A private copy of a statement body: fresh statement nodes and
    fresh lists all the way down, expressions shared.

    Expressions are frozen, and every rewrite (the SSA passes, the
    linker) replaces a statement's expression attribute rather than
    editing the expression, so sharing them is safe and the clone costs
    one shallow copy per statement.
    """
    out: List[P4Stmt] = []
    for stmt in stmts:
        twin = object.__new__(type(stmt))
        fields = twin.__dict__
        for name, value in vars(stmt).items():
            if isinstance(value, list):  # a nested body, or operands
                nested = value and isinstance(value[0], P4Stmt)
                value = clone_stmts(value) if nested else list(value)
            fields[name] = value
        out.append(twin)
    return out


def program_bodies(program: P4Program) -> List[List[P4Stmt]]:
    """Every statement container of a program: the two pipelines plus
    all action bodies (tables dispatch only into actions)."""
    bodies = [program.ingress, program.egress]
    bodies.extend(action.body for action in program.actions.values())
    return bodies


def check_externs(program: P4Program) -> None:
    """Reject a wrong extern declaration when a switch is built.

    Every ``dest`` must be a ``meta.*`` or ``hdr.*`` field the program
    declares (so its write mask is known) and every ``arg`` a
    well-formed expression over declared paths.  Other broken paths
    fail when executed; an extern's footprint is a contract the engines
    and analyses compile against, so it fails here.
    """
    meta = {name for name, _ in program.metadata}
    binds = program.bind_types()

    def declared(path: object) -> bool:
        if not isinstance(path, str):
            return False
        root, _, rest = path.partition(".")
        if root == "hdr":
            bind, _, fname = rest.partition(".")
            return bind in binds and binds[bind].has_field(fname)
        return root == "meta" and rest in meta

    def well_formed(node: object) -> bool:
        if isinstance(node, FieldRef):
            return (declared(node.path) or node.path.startswith(
                ("standard_metadata.", "param.")))
        if isinstance(node, ValidRef):
            return node.header in binds
        return isinstance(node, (Const, UnExpr, BinExpr))

    for body in program_bodies(program):
        for stmt in walk_stmts(body):
            if not isinstance(stmt, ExternCall):
                continue
            if not callable(stmt.fn):
                raise P4RuntimeError(
                    f"extern {stmt.name!r}: fn is not callable")
            for dest in stmt.dests:
                if not declared(dest):
                    raise P4RuntimeError(
                        f"extern {stmt.name!r}: dest {dest!r} is not a "
                        f"declared meta or header field")
            for arg in stmt.args:
                nodes = walk_exprs(arg) if isinstance(arg, P4Expr) else [arg]
                for node in nodes:
                    if not well_formed(node):
                        raise P4RuntimeError(
                            f"extern {stmt.name!r}: malformed argument "
                            f"{node!r}")


def mutates_headers(program: P4Program) -> bool:
    """Whether any reachable statement can modify a header instance.

    Used for copy elision in the reference engine: a program that
    provably never writes header fields or validity bits can process a
    packet that *shares* its ``Header`` objects with the original (only
    the packet shell is copied), skipping the per-header deep copy.
    Mutating one is defining a location under ``hdr.``: a field, a
    validity bit, a source-route slot.
    """
    return any(loc.startswith("hdr.") for body in program_bodies(program)
               for stmt in walk_stmts(body) for loc in stmt_defs(stmt))
