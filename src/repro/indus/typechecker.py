"""Type checker for Indus.

Beyond conventional type checking, this module enforces the language
restrictions that make Indus programs compilable to high-speed hardware
and non-interfering with forwarding (Section 3.1 of the paper):

* ``header`` and ``control`` variables are **read-only**;
* all state is statically allocated (array/set capacities are compile-time
  constants — guaranteed syntactically — and loops iterate only over them,
  so all loops terminate);
* ``reject`` may appear only in the checker block (violations are enforced
  at the edge); ``report`` may appear anywhere;
* ``tele`` variables must have packable types (no dictionaries on the wire).

The checker decorates every expression node with its inferred type
(``node.ty``) and returns a :class:`CheckedProgram` carrying the symbol
table, which later phases (interpreter, compiler) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from . import ast
from .errors import IndusTypeError, SourceSpan
from .types import (ArrayType, BitType, BoolType, DictType, SetType,
                    TupleType, Type, BOOL)

# Builtin read-only context values available in every block.
BUILTIN_TYPES: Dict[str, Type] = {
    "last_hop": BOOL,
    "first_hop": BOOL,
    "packet_length": BitType(32),
    "hop_count": BitType(8),
    "switch_id": BitType(32),
}


@dataclass
class Symbol:
    """A resolved name: either a declared variable, a builtin, or a loop var."""

    name: str
    ty: Type
    kind: ast.VarKind
    decl: Optional[ast.Decl] = None
    is_builtin: bool = False
    is_loop_var: bool = False

    @property
    def writable(self) -> bool:
        return (not self.is_builtin and not self.is_loop_var
                and not self.kind.read_only)


@dataclass
class CheckedProgram:
    """A type-checked program plus its symbol table and usage summary."""

    program: ast.Program
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    # Names of variables written per block, used by the compiler to decide
    # table placement and by tests to assert non-interference.
    writes: Dict[str, Set[str]] = field(default_factory=dict)
    # Builtins actually referenced (drives generated metadata).
    used_builtins: Set[str] = field(default_factory=set)

    def symbol(self, name: str) -> Symbol:
        return self.symbols[name]


class TypeChecker:
    def __init__(self, program: ast.Program):
        self.program = program
        self.symbols: Dict[str, Symbol] = {}
        self.loop_vars: Dict[str, Symbol] = {}
        self.writes: Dict[str, Set[str]] = {
            "init": set(), "telemetry": set(), "checker": set()
        }
        self.used_builtins: Set[str] = set()
        self.current_block = ""

    # -- entry point ------------------------------------------------------------

    def check(self) -> CheckedProgram:
        for decl in self.program.decls:
            self._check_decl(decl)
        for block_name, stmts in self.program.blocks:
            self.current_block = block_name
            for stmt in stmts:
                self._check_stmt(stmt)
        return CheckedProgram(
            program=self.program,
            symbols=self.symbols,
            writes=self.writes,
            used_builtins=self.used_builtins,
        )

    # -- declarations -------------------------------------------------------------

    def _check_decl(self, decl: ast.Decl) -> None:
        if decl.name in BUILTIN_TYPES:
            raise IndusTypeError(
                f"{decl.name!r} is a builtin and cannot be redeclared", decl.span
            )
        if decl.name in self.symbols:
            raise IndusTypeError(f"duplicate declaration of {decl.name!r}", decl.span)

        if decl.kind is ast.VarKind.TELE and not decl.ty.is_packable():
            raise IndusTypeError(
                f"tele variable {decl.name!r} has type {decl.ty}, which cannot "
                "travel on the packet",
                decl.span,
            )
        if decl.kind is ast.VarKind.HEADER:
            if not isinstance(decl.ty, (BitType, BoolType)):
                raise IndusTypeError(
                    f"header variable {decl.name!r} must be a scalar "
                    f"(bit<n> or bool), got {decl.ty}",
                    decl.span,
                )
            if decl.init is not None:
                raise IndusTypeError(
                    f"header variable {decl.name!r} is read-only and cannot "
                    "have an initializer",
                    decl.span,
                )
        if decl.kind is ast.VarKind.CONTROL and decl.init is not None:
            raise IndusTypeError(
                f"control variable {decl.name!r} is populated by the control "
                "plane and cannot have an initializer",
                decl.span,
            )
        if decl.kind is ast.VarKind.SENSOR:
            ok = isinstance(decl.ty, (BitType, BoolType)) or (
                isinstance(decl.ty, ArrayType)
                and isinstance(decl.ty.element, (BitType, BoolType))
            )
            if not ok:
                raise IndusTypeError(
                    f"sensor variable {decl.name!r} must map to registers "
                    f"(scalar or array of scalars), got {decl.ty}",
                    decl.span,
                )
        if decl.init is not None:
            init_ty = self._check_expr(decl.init, expected=self._init_expected(decl.ty))
            if not self._assignable(decl.ty, init_ty):
                raise IndusTypeError(
                    f"initializer for {decl.name!r} has type {init_ty}, "
                    f"expected {decl.ty}",
                    decl.span,
                )
        self.symbols[decl.name] = Symbol(decl.name, decl.ty, decl.kind, decl)

    @staticmethod
    def _init_expected(ty: Type) -> Optional[Type]:
        return ty if isinstance(ty, (BitType, BoolType)) else None

    # -- statements ------------------------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.Reject):
            if self.current_block != "checker":
                raise IndusTypeError(
                    "reject is only allowed in the checker block (violations "
                    "are enforced at the network edge)",
                    stmt.span,
                )
            return
        if isinstance(stmt, ast.Report):
            if stmt.payload is not None:
                payload_ty = self._check_expr(stmt.payload)
                if isinstance(payload_ty, (DictType,)):
                    raise IndusTypeError(
                        "report payload cannot be a dictionary", stmt.span
                    )
            return
        if isinstance(stmt, ast.Assign):
            self._check_assign(stmt.target, stmt.value, stmt.span)
            return
        if isinstance(stmt, ast.AugAssign):
            target_ty = self._check_lvalue(stmt.target, stmt.span)
            if not isinstance(target_ty, BitType):
                raise IndusTypeError(
                    f"augmented assignment requires a bit<n> target, "
                    f"got {target_ty}",
                    stmt.span,
                )
            value_ty = self._check_expr(stmt.value, expected=target_ty)
            if not isinstance(value_ty, BitType):
                raise IndusTypeError(
                    f"augmented assignment value must be bit<n>, got {value_ty}",
                    stmt.span,
                )
            return
        if isinstance(stmt, ast.Push):
            target_ty = self._check_lvalue(stmt.target, stmt.span, for_push=True)
            if not isinstance(target_ty, ArrayType):
                raise IndusTypeError(
                    f"push target must be an array, got {target_ty}", stmt.span
                )
            value_ty = self._check_expr(
                stmt.value,
                expected=target_ty.element
                if isinstance(target_ty.element, (BitType, BoolType)) else None,
            )
            if not self._assignable(target_ty.element, value_ty):
                raise IndusTypeError(
                    f"cannot push {value_ty} onto {target_ty}", stmt.span
                )
            return
        if isinstance(stmt, ast.If):
            for cond, body in stmt.arms:
                cond_ty = self._check_expr(cond, expected=BOOL)
                if not isinstance(cond_ty, BoolType):
                    raise IndusTypeError(
                        f"if condition must be bool, got {cond_ty}", cond.span
                    )
                for inner in body:
                    self._check_stmt(inner)
            for inner in stmt.orelse:
                self._check_stmt(inner)
            return
        if isinstance(stmt, ast.For):
            self._check_for(stmt)
            return
        raise IndusTypeError(f"unknown statement {type(stmt).__name__}", stmt.span)

    def _check_for(self, stmt: ast.For) -> None:
        elem_types: List[Type] = []
        lengths: List[int] = []
        for iterable in stmt.iterables:
            it_ty = self._check_expr(iterable)
            if isinstance(it_ty, ArrayType):
                elem_types.append(it_ty.element)
                lengths.append(it_ty.capacity)
            elif isinstance(it_ty, SetType):
                elem_types.append(it_ty.element)
                lengths.append(it_ty.capacity)
            else:
                raise IndusTypeError(
                    f"for loop can only iterate over arrays or sets, got {it_ty} "
                    "(static bounds guarantee termination)",
                    iterable.span,
                )
        if len(set(lengths)) > 1:
            raise IndusTypeError(
                f"parallel for loop iterables have different capacities: {lengths}",
                stmt.span,
            )
        # Loop variables may shadow declared variables: Figure 2 of the
        # paper iterates with names that shadow its sensors.  Inside the
        # loop body the name resolves to the (read-only) loop variable.
        shadowed: Dict[str, Optional[Symbol]] = {}
        for name, elem_ty in zip(stmt.names, elem_types):
            shadowed.setdefault(name, self.loop_vars.get(name))
            sym = Symbol(name, elem_ty, ast.VarKind.LOCAL, is_loop_var=True)
            self.loop_vars[name] = sym
        try:
            for inner in stmt.body:
                self._check_stmt(inner)
        finally:
            for name, prev in shadowed.items():
                if prev is None:
                    del self.loop_vars[name]
                else:
                    self.loop_vars[name] = prev

    def _check_assign(self, target: ast.Expr, value: ast.Expr,
                      span: SourceSpan) -> None:
        target_ty = self._check_lvalue(target, span)
        expected = target_ty if isinstance(target_ty, (BitType, BoolType)) else None
        value_ty = self._check_expr(value, expected=expected)
        if not self._assignable(target_ty, value_ty):
            raise IndusTypeError(
                f"cannot assign {value_ty} to target of type {target_ty}", span
            )

    def _check_lvalue(self, target: ast.Expr, span: SourceSpan,
                      for_push: bool = False) -> Type:
        """Check a write target; returns its type and records the write."""
        if isinstance(target, ast.Var):
            sym = self._resolve(target.name, target.span)
            if sym.is_loop_var:
                raise IndusTypeError(
                    f"loop variable {target.name!r} is read-only", span
                )
            if not sym.writable:
                raise IndusTypeError(
                    f"{sym.kind.value} variable {target.name!r} is read-only",
                    span,
                )
            target.ty = sym.ty
            self.writes[self.current_block].add(target.name)
            return sym.ty
        if isinstance(target, ast.Index) and not for_push:
            base_ty = self._check_lvalue(target.base, span)
            if not isinstance(base_ty, ArrayType):
                raise IndusTypeError(
                    f"only array slots can be assigned through an index, "
                    f"got {base_ty}",
                    span,
                )
            index_ty = self._check_expr(target.index, expected=BitType(32))
            if not isinstance(index_ty, BitType):
                raise IndusTypeError(
                    f"array index must be bit<n>, got {index_ty}", span
                )
            target.ty = base_ty.element
            return base_ty.element
        raise IndusTypeError("invalid assignment target", span)

    # -- expressions ---------------------------------------------------------------------

    def _resolve(self, name: str, span: SourceSpan) -> Symbol:
        if name in self.loop_vars:
            return self.loop_vars[name]
        if name in self.symbols:
            return self.symbols[name]
        if name in BUILTIN_TYPES:
            if name == "last_hop" and self.current_block == "init":
                # The init block compiles into the *ingress* pipeline of
                # the first-hop switch, before forwarding has resolved an
                # egress port — but last-hop detection keys on the egress
                # port, so the value cannot exist yet in the data plane.
                raise IndusTypeError(
                    "last_hop is not available in the init block: init "
                    "runs at ingress of the first-hop switch, before the "
                    "egress port that identifies the last hop is known",
                    span,
                )
            self.used_builtins.add(name)
            return Symbol(name, BUILTIN_TYPES[name], ast.VarKind.HEADER,
                          is_builtin=True)
        raise IndusTypeError(f"undeclared variable {name!r}", span)

    def _check_expr(self, expr: ast.Expr,
                    expected: Optional[Type] = None) -> Type:
        ty = self._infer(expr, expected)
        expr.ty = ty
        return ty

    def _infer(self, expr: ast.Expr, expected: Optional[Type]) -> Type:
        if isinstance(expr, ast.IntLit):
            if isinstance(expected, BitType):
                if expr.value > expected.max_value:
                    raise IndusTypeError(
                        f"literal {expr.value} does not fit in {expected}",
                        expr.span,
                    )
                return expected
            if expr.value < 0:
                raise IndusTypeError(
                    "integer literals are unsigned bitstrings", expr.span
                )
            # Literals without a constraining context default to bit<32>
            # (wide enough that literal arithmetic never wraps surprisingly).
            return BitType(max(expr.value.bit_length(), 32))
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.Var):
            return self._resolve(expr.name, expr.span).ty
        if isinstance(expr, ast.TupleExpr):
            return TupleType(tuple(self._check_expr(item) for item in expr.items))
        if isinstance(expr, ast.Unary):
            return self._infer_unary(expr, expected)
        if isinstance(expr, ast.Binary):
            return self._infer_binary(expr, expected)
        if isinstance(expr, ast.Index):
            return self._infer_index(expr)
        if isinstance(expr, ast.InExpr):
            return self._infer_in(expr)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, expected)
        raise IndusTypeError(f"unknown expression {type(expr).__name__}", expr.span)

    def _infer_unary(self, expr: ast.Unary, expected: Optional[Type]) -> Type:
        if expr.op.kind is ast.OpKind.LOGICAL:
            operand_ty = self._check_expr(expr.operand, expected=BOOL)
            if not isinstance(operand_ty, BoolType):
                raise IndusTypeError(
                    f"{expr.op.value} requires bool, got {operand_ty}", expr.span
                )
            return BOOL
        operand_ty = self._check_expr(
            expr.operand,
            expected=expected if isinstance(expected, BitType) else None,
        )
        if not isinstance(operand_ty, BitType):
            raise IndusTypeError(
                f"{expr.op.value} requires bit<n>, got {operand_ty}", expr.span
            )
        return operand_ty

    def _infer_binary(self, expr: ast.Binary,
                      expected: Optional[Type] = None) -> Type:
        op = expr.op
        if op.kind is ast.OpKind.LOGICAL:
            left = self._check_expr(expr.left, expected=BOOL)
            right = self._check_expr(expr.right, expected=BOOL)
            if not isinstance(left, BoolType) or not isinstance(right, BoolType):
                raise IndusTypeError(
                    f"{op.value} requires bool operands, got {left} and {right}",
                    expr.span,
                )
            return BOOL
        # A surrounding context (e.g. the target of an assignment) narrows
        # purely-literal arithmetic so that ``bit<8> x = 12 & 10;`` works;
        # a comparison's bool result gives its operands no width.
        left, right = self._infer_operand_pair(
            expr, expected if op.kind is ast.OpKind.ARITH else None)
        if op.kind is ast.OpKind.EQUALITY:
            if not self._comparable(left, right):
                raise IndusTypeError(
                    f"cannot compare {left} with {right}", expr.span
                )
            return BOOL
        if not isinstance(left, BitType) or not isinstance(right, BitType):
            raise IndusTypeError(
                f"{op.value} requires bit<n> operands, got {left} and {right}",
                expr.span,
            )
        if op.kind is ast.OpKind.ORDER:
            return BOOL
        return BitType(max(left.width, right.width))

    def _infer_operand_pair(self, expr: ast.Binary,
                            expected: Optional[Type] = None):
        """Infer both operands, letting a literal adopt the other's width
        (or the surrounding context's, when both sides are literal)."""
        context = expected if isinstance(expected, BitType) else None
        if isinstance(expr.left, ast.IntLit) and not isinstance(expr.right, ast.IntLit):
            right = self._check_expr(expr.right, expected=context)
            left = self._check_expr(
                expr.left, expected=right if isinstance(right, BitType) else None
            )
        else:
            left = self._check_expr(expr.left, expected=context)
            right = self._check_expr(
                expr.right, expected=left if isinstance(left, BitType) else None
            )
        return left, right

    def _infer_index(self, expr: ast.Index) -> Type:
        base_ty = self._check_expr(expr.base)
        if isinstance(base_ty, ArrayType):
            index_ty = self._check_expr(expr.index, expected=BitType(32))
            if not isinstance(index_ty, BitType):
                raise IndusTypeError(
                    f"array index must be bit<n>, got {index_ty}", expr.span
                )
            return base_ty.element
        if isinstance(base_ty, DictType):
            expected_key = (base_ty.key
                            if isinstance(base_ty.key, (BitType, BoolType))
                            else None)
            key_ty = self._check_expr(expr.index, expected=expected_key)
            if not self._assignable(base_ty.key, key_ty):
                raise IndusTypeError(
                    f"dictionary key has type {key_ty}, expected {base_ty.key}",
                    expr.span,
                )
            return base_ty.value
        raise IndusTypeError(
            f"{base_ty} cannot be indexed (expected array or dict)", expr.span
        )

    def _infer_in(self, expr: ast.InExpr) -> Type:
        container_ty = self._check_expr(expr.container)
        if isinstance(container_ty, (ArrayType, SetType)):
            elem = container_ty.element
        else:
            raise IndusTypeError(
                f"'in' requires an array or set on the right, got {container_ty}",
                expr.span,
            )
        item_ty = self._check_expr(
            expr.item, expected=elem if isinstance(elem, (BitType, BoolType)) else None
        )
        if not self._assignable(elem, item_ty):
            raise IndusTypeError(
                f"'in' item has type {item_ty}, container holds {elem}", expr.span
            )
        return BOOL

    def _infer_call(self, expr: ast.Call,
                    expected: Optional[Type] = None) -> Type:
        context = expected if isinstance(expected, BitType) else None
        if expr.func == "abs":
            self._require_arity(expr, 1)
            # ``abs(a - b)`` over unsigned bitstrings: interpreted as
            # absolute difference; result has the operand's width.
            ty = self._check_expr(expr.args[0], expected=context)
            if not isinstance(ty, BitType):
                raise IndusTypeError(f"abs requires bit<n>, got {ty}", expr.span)
            return ty
        if expr.func == "length":
            self._require_arity(expr, 1)
            ty = self._check_expr(expr.args[0])
            if not isinstance(ty, (ArrayType, SetType)):
                raise IndusTypeError(
                    f"length requires an array or set, got {ty}", expr.span
                )
            return BitType(32)
        if expr.func in ("max", "min"):
            self._require_arity(expr, 2)
            left = self._check_expr(expr.args[0], expected=context)
            right = self._check_expr(
                expr.args[1], expected=left if isinstance(left, BitType) else None
            )
            if not isinstance(left, BitType) or not isinstance(right, BitType):
                raise IndusTypeError(
                    f"{expr.func} requires bit<n> operands", expr.span
                )
            return BitType(max(left.width, right.width))
        raise IndusTypeError(f"unknown function {expr.func!r}", expr.span)

    @staticmethod
    def _require_arity(expr: ast.Call, count: int) -> None:
        if len(expr.args) != count:
            raise IndusTypeError(
                f"{expr.func} takes {count} argument(s), got {len(expr.args)}",
                expr.span,
            )

    # -- type relations ------------------------------------------------------------------

    @staticmethod
    def _assignable(target: Type, value: Type) -> bool:
        if target == value:
            return True
        # Bit widths: allow narrower values into wider targets (zero-extend),
        # matching how P4 programmers use literals and slices in practice.
        if isinstance(target, BitType) and isinstance(value, BitType):
            return value.width <= target.width
        if isinstance(target, TupleType) and isinstance(value, TupleType):
            return len(target.elements) == len(value.elements) and all(
                TypeChecker._assignable(t, v)
                for t, v in zip(target.elements, value.elements)
            )
        return False

    @staticmethod
    def _comparable(a: Type, b: Type) -> bool:
        if isinstance(a, BitType) and isinstance(b, BitType):
            return True
        if isinstance(a, BoolType) and isinstance(b, BoolType):
            return True
        if isinstance(a, TupleType) and isinstance(b, TupleType):
            return len(a.elements) == len(b.elements) and all(
                TypeChecker._comparable(x, y)
                for x, y in zip(a.elements, b.elements)
            )
        return False


def check(program: ast.Program) -> CheckedProgram:
    """Type-check ``program``, returning the checked form.

    Raises :class:`~repro.indus.errors.IndusTypeError` on any violation.
    """
    return TypeChecker(program).check()
