"""Reference interpreter for Indus.

The interpreter gives the *specification* semantics of a monitor: a
:class:`Monitor` is instantiated from a type-checked program, a
:class:`MonitorState` travels with each packet (its ``tele`` variables),
and each hop supplies a :class:`HopContext` with that switch's header,
control, and sensor views.

The compiled pipeline (``repro.compiler`` + ``repro.p4.bmv2``) implements
the same semantics independently; differential tests check agreement,
mirroring the paper's independence argument between forwarding and
checking code.

Verdict semantics: ``reject`` and ``report`` are *accumulators*, not
aborting exceptions — Figure 9 of the paper runs ``reject; report(...)``
in sequence, so both must take effect.  A block always runs to
completion; the final verdict is reject-if-flagged, with all reports
delivered to the control plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import ast
from .errors import EvalError
from .typechecker import BUILTIN_TYPES, CheckedProgram, check
from .types import BitType, DictType, SetType, width_of
from .values import (ArrayValue, DictValue, SetValue, coerce, mask,
                     zero_value)

BLOCK_INIT = "init"
BLOCK_TELEMETRY = "telemetry"
BLOCK_CHECKER = "checker"


@dataclass
class Report:
    """A report emitted toward the control plane."""

    block: str
    payload: Optional[Any] = None
    switch_id: int = 0


@dataclass
class MonitorState:
    """Per-packet monitor state: the tele variables plus verdict flags.

    This is exactly the information the compiled system carries in the
    Hydra telemetry header.
    """

    tele: Dict[str, Any] = field(default_factory=dict)
    rejected: bool = False
    reports: List[Report] = field(default_factory=list)

    def copy(self) -> "MonitorState":
        tele = {
            name: value.copy() if hasattr(value, "copy") else value
            for name, value in self.tele.items()
        }
        return MonitorState(tele=tele, rejected=self.rejected,
                            reports=list(self.reports))


class SensorStore:
    """Switch-local sensor (register) storage, persistent across packets."""

    def __init__(self):
        self._values: Dict[str, Any] = {}

    def setup(self, name: str, ty, init: Any) -> None:
        if name not in self._values:
            self._values[name] = init if init is not None else zero_value(ty)

    def get(self, name: str) -> Any:
        return self._values[name]

    def set(self, name: str, value: Any) -> None:
        self._values[name] = value

    def snapshot(self) -> Dict[str, Any]:
        return dict(self._values)


class ControlStore:
    """Read-only (from the data plane) control variable storage.

    The control plane writes through :meth:`set_value`, :meth:`dict_put`
    and :meth:`dict_remove` — the same operations the P4Runtime-like API
    of the behavioral model exposes as table entry updates.
    """

    def __init__(self, checked: CheckedProgram):
        self._checked = checked
        self._values: Dict[str, Any] = {}
        for decl in checked.program.decls:
            if decl.kind is ast.VarKind.CONTROL:
                self._values[decl.name] = zero_value(decl.ty)

    def set_value(self, name: str, value: Any) -> None:
        decl = self._require(name)
        if isinstance(decl.ty, DictType):
            raise EvalError(
                f"control dict {name!r} must be updated entry-wise "
                "(use dict_put/dict_remove)"
            )
        if isinstance(decl.ty, SetType):
            out = SetValue(decl.ty)
            for item in value:
                out.add(item)
            self._values[name] = out
            return
        self._values[name] = coerce(decl.ty, value)

    def dict_put(self, name: str, key: Any, value: Any) -> None:
        decl = self._require(name)
        if not isinstance(decl.ty, DictType):
            raise EvalError(f"control variable {name!r} is not a dict")
        self._values[name].put(key, value)

    def dict_remove(self, name: str, key: Any) -> None:
        decl = self._require(name)
        if not isinstance(decl.ty, DictType):
            raise EvalError(f"control variable {name!r} is not a dict")
        self._values[name].remove(key)

    def set_add(self, name: str, item: Any) -> None:
        decl = self._require(name)
        if not isinstance(decl.ty, SetType):
            raise EvalError(f"control variable {name!r} is not a set")
        self._values[name].add(item)

    def get(self, name: str) -> Any:
        return self._values[name]

    def _require(self, name: str) -> ast.Decl:
        decl = self._checked.program.decl(name)
        if decl is None or decl.kind is not ast.VarKind.CONTROL:
            raise EvalError(f"unknown control variable {name!r}")
        return decl


@dataclass
class HopContext:
    """Everything a monitor can observe at one hop."""

    headers: Dict[str, Any] = field(default_factory=dict)
    controls: Optional[ControlStore] = None
    sensors: Optional[SensorStore] = None
    first_hop: bool = False
    last_hop: bool = False
    packet_length: int = 0
    hop_count: int = 0
    switch_id: int = 0

    def builtin(self, name: str) -> Any:
        """A builtin's value, masked to the width ``BUILTIN_TYPES``
        declares for it."""
        ty = BUILTIN_TYPES.get(name)
        if ty is None:
            raise EvalError(f"unknown builtin {name!r}")
        value = getattr(self, name)
        return mask(value, ty.width) if isinstance(ty, BitType) else value


class _BlockScope:
    """Mutable name resolution for one block execution."""

    def __init__(self, monitor: "Monitor", state: MonitorState, ctx: HopContext):
        self.monitor = monitor
        self.state = state
        self.ctx = ctx
        self.locals: Dict[str, Any] = {}
        self.loop_vars: Dict[str, Any] = {}

    def read(self, name: str) -> Any:
        if name in self.loop_vars:
            return self.loop_vars[name]
        decl = self.monitor.decls.get(name)
        if decl is None:
            if name in BUILTIN_TYPES:
                return self.ctx.builtin(name)
            raise EvalError(f"undeclared variable {name!r}")
        kind = decl.kind
        if kind is ast.VarKind.TELE:
            return self.state.tele[name]
        if kind is ast.VarKind.LOCAL:
            if name not in self.locals:
                self.locals[name] = self.monitor.local_default(decl)
            return self.locals[name]
        if kind is ast.VarKind.SENSOR:
            if self.ctx.sensors is None:
                raise EvalError(f"no sensor store bound for {name!r}")
            self.monitor.ensure_sensor(self.ctx.sensors, decl)
            return self.ctx.sensors.get(name)
        if kind is ast.VarKind.CONTROL:
            if self.ctx.controls is None:
                raise EvalError(f"no control store bound for {name!r}")
            return self.ctx.controls.get(name)
        if kind is ast.VarKind.HEADER:
            if name not in self.ctx.headers:
                raise EvalError(
                    f"header variable {name!r} not provided by this hop"
                )
            return coerce(decl.ty, self.ctx.headers[name])
        raise EvalError(f"cannot read {name!r}")

    def write(self, name: str, value: Any) -> None:
        decl = self.monitor.decls.get(name)
        if decl is None:
            raise EvalError(f"undeclared variable {name!r}")
        value = coerce(decl.ty, value)
        kind = decl.kind
        if kind is ast.VarKind.TELE:
            self.state.tele[name] = value
        elif kind is ast.VarKind.LOCAL:
            self.locals[name] = value
        elif kind is ast.VarKind.SENSOR:
            if self.ctx.sensors is None:
                raise EvalError(f"no sensor store bound for {name!r}")
            self.monitor.ensure_sensor(self.ctx.sensors, decl)
            self.ctx.sensors.set(name, value)
        else:
            raise EvalError(f"{kind.value} variable {name!r} is read-only")


class Monitor:
    """Executable monitor semantics for a checked Indus program."""

    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.program = checked.program
        self.decls: Dict[str, ast.Decl] = {d.name: d for d in self.program.decls}
        self._init_values: Dict[str, Any] = {}
        for decl in self.program.decls:
            if decl.kind is ast.VarKind.TELE:
                self._init_values[decl.name] = self._decl_default(decl)

    @classmethod
    def from_source(cls, source: str) -> "Monitor":
        from .parser import parse

        return cls(check(parse(source)))

    # -- state construction -------------------------------------------------------

    def _decl_default(self, decl: ast.Decl) -> Any:
        if decl.init is None:
            return zero_value(decl.ty)
        value = _eval_const(decl.init)
        return coerce(decl.ty, value)

    def local_default(self, decl: ast.Decl) -> Any:
        return self._decl_default(decl)

    def ensure_sensor(self, store: SensorStore, decl: ast.Decl) -> None:
        store.setup(decl.name, decl.ty, self._decl_default(decl))

    def new_state(self) -> MonitorState:
        tele = {
            name: value.copy() if hasattr(value, "copy") else value
            for name, value in self._init_values.items()
        }
        return MonitorState(tele=tele)

    def new_controls(self) -> ControlStore:
        return ControlStore(self.checked)

    def new_sensors(self) -> SensorStore:
        store = SensorStore()
        for decl in self.program.decls:
            if decl.kind is ast.VarKind.SENSOR:
                self.ensure_sensor(store, decl)
        return store

    # -- execution ----------------------------------------------------------------

    def run_block(self, block: str, state: MonitorState, ctx: HopContext) -> None:
        stmts = {
            BLOCK_INIT: self.program.init_block,
            BLOCK_TELEMETRY: self.program.tele_block,
            BLOCK_CHECKER: self.program.check_block,
        }[block]
        scope = _BlockScope(self, state, ctx)
        for stmt in stmts:
            self._exec(stmt, scope, block)

    def run_hop(self, state: MonitorState, ctx: HopContext) -> None:
        """Run all blocks appropriate for this hop, in order."""
        if ctx.first_hop:
            self.run_block(BLOCK_INIT, state, ctx)
        self.run_block(BLOCK_TELEMETRY, state, ctx)
        if ctx.last_hop:
            self.run_block(BLOCK_CHECKER, state, ctx)

    def run_path(self, contexts: List[HopContext]) -> MonitorState:
        """Convenience: run a packet through a sequence of hop contexts."""
        state = self.new_state()
        for ctx in contexts:
            self.run_hop(state, ctx)
        return state

    # -- statements ------------------------------------------------------------------

    def _exec(self, stmt: ast.Stmt, scope: _BlockScope, block: str) -> None:
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Reject):
            scope.state.rejected = True
            return
        if isinstance(stmt, ast.Report):
            payload = (self._eval(stmt.payload, scope)
                       if stmt.payload is not None else None)
            scope.state.reports.append(
                Report(block=block, payload=payload, switch_id=scope.ctx.switch_id)
            )
            return
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt.target, self._eval(stmt.value, scope), scope)
            return
        if isinstance(stmt, ast.AugAssign):
            current = self._eval(stmt.target, scope)
            operand = self._eval(stmt.value, scope)
            result = stmt.op.eval(current, operand, width_of(stmt.target.ty))
            self._exec_assign(stmt.target, result, scope)
            return
        if isinstance(stmt, ast.Push):
            target = self._eval(stmt.target, scope)
            if not isinstance(target, ArrayValue):
                raise EvalError("push target is not an array", stmt.span)
            target.push(self._eval(stmt.value, scope))
            return
        if isinstance(stmt, ast.If):
            for cond, body in stmt.arms:
                if self._eval(cond, scope):
                    for inner in body:
                        self._exec(inner, scope, block)
                    return
            for inner in stmt.orelse:
                self._exec(inner, scope, block)
            return
        if isinstance(stmt, ast.For):
            iterables = [self._eval(it, scope) for it in stmt.iterables]
            items_lists = []
            for value in iterables:
                if isinstance(value, (ArrayValue, SetValue)):
                    items_lists.append(value.valid_items())
                else:
                    raise EvalError("for loop iterable is not a collection",
                                    stmt.span)
            saved = {name: scope.loop_vars.get(name) for name in stmt.names}
            try:
                for bundle in zip(*items_lists) if items_lists else ():
                    for name, item in zip(stmt.names, bundle):
                        scope.loop_vars[name] = item
                    for inner in stmt.body:
                        self._exec(inner, scope, block)
            finally:
                for name, prev in saved.items():
                    if prev is None:
                        scope.loop_vars.pop(name, None)
                    else:
                        scope.loop_vars[name] = prev
            return
        raise EvalError(f"unknown statement {type(stmt).__name__}", stmt.span)

    def _exec_assign(self, target: ast.Expr, value: Any,
                     scope: _BlockScope) -> None:
        if isinstance(target, ast.Var):
            scope.write(target.name, value)
            return
        if isinstance(target, ast.Index):
            base = self._eval(target.base, scope)
            index = self._eval(target.index, scope)
            if not isinstance(base, ArrayValue):
                raise EvalError("indexed assignment target is not an array",
                                target.span)
            base.set(int(index), value)
            return
        raise EvalError("invalid assignment target", target.span)

    # -- expressions -----------------------------------------------------------------

    def _eval(self, expr: ast.Expr, scope: _BlockScope) -> Any:
        if isinstance(expr, ast.IntLit):
            return mask(expr.value, width_of(expr.ty))
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.Var):
            return scope.read(expr.name)
        if isinstance(expr, ast.TupleExpr):
            return tuple(self._eval(item, scope) for item in expr.items)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, scope)
        if isinstance(expr, ast.Index):
            base = self._eval(expr.base, scope)
            index = self._eval(expr.index, scope)
            if isinstance(base, ArrayValue):
                return base.get(int(index))
            if isinstance(base, DictValue):
                return base.get(index)
            raise EvalError("cannot index this value", expr.span)
        if isinstance(expr, ast.InExpr):
            container = self._eval(expr.container, scope)
            item = self._eval(expr.item, scope)
            return item in container
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, scope)
        raise EvalError(f"unknown expression {type(expr).__name__}", expr.span)

    def _eval_unary(self, expr: ast.Unary, scope: _BlockScope) -> Any:
        return expr.op.eval(self._eval(expr.operand, scope), width_of(expr.ty))

    def _eval_binary(self, expr: ast.Binary, scope: _BlockScope) -> Any:
        op = expr.op
        if op is ast.BinaryOp.AND:
            return bool(self._eval(expr.left, scope)) and \
                bool(self._eval(expr.right, scope))
        if op is ast.BinaryOp.OR:
            return bool(self._eval(expr.left, scope)) or \
                bool(self._eval(expr.right, scope))
        left = self._eval(expr.left, scope)
        right = self._eval(expr.right, scope)
        return op.eval(left, right, width_of(expr.ty))

    def _eval_call(self, expr: ast.Call, scope: _BlockScope) -> Any:
        if expr.func == "abs":
            # Absolute value over bit<n> interpreted as two's complement:
            # ``abs(a - b)`` recovers |a - b| whenever it fits in n-1 bits.
            value = self._eval(expr.args[0], scope)
            return min(value, mask(-value, width_of(expr.args[0].ty)))
        if expr.func == "length":
            return len(self._eval(expr.args[0], scope))
        if expr.func == "max":
            return max(self._eval(expr.args[0], scope),
                       self._eval(expr.args[1], scope))
        if expr.func == "min":
            return min(self._eval(expr.args[0], scope),
                       self._eval(expr.args[1], scope))
        raise EvalError(f"unknown function {expr.func!r}", expr.span)


def _eval_const(expr: ast.Expr) -> Any:
    """Evaluate a constant initializer expression (no variables allowed)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return expr.value
    if isinstance(expr, ast.TupleExpr):
        return tuple(_eval_const(item) for item in expr.items)
    if isinstance(expr, ast.Unary) and expr.op is ast.UnaryOp.NEG:
        return -_eval_const(expr.operand)
    raise EvalError("initializers must be constant expressions", expr.span)
