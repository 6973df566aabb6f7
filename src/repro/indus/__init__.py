"""The Indus domain-specific language: lexer, parser, type checker, and
reference interpreter (monitor semantics).

Typical use::

    from repro.indus import parse, check, Monitor

    program = parse(source_text)
    checked = check(program)
    monitor = Monitor(checked)
"""

from .ast import (BinaryOp, Decl, Program, UnaryOp, VarKind)
from .errors import (CompileError, EvalError, IndusError, IndusTypeError,
                     LexError, ParseError, SourceSpan)
from .interp import (BLOCK_CHECKER, BLOCK_INIT, BLOCK_TELEMETRY, ControlStore,
                     HopContext, Monitor, MonitorState, Report, SensorStore)
from .lexer import tokenize
from .parser import parse, parse_expression
from .printer import format_program
from .typechecker import BUILTIN_TYPES, CheckedProgram, Symbol, check
from .types import (ArrayType, BitType, BoolType, DictType, SetType,
                    TupleType, Type, bits, BOOL)
from .values import ArrayValue, DictValue, SetValue, mask, zero_value

__all__ = [
    "ArrayType", "ArrayValue", "format_program", "BLOCK_CHECKER", "BLOCK_INIT",
    "BLOCK_TELEMETRY", "BOOL", "BUILTIN_TYPES", "BinaryOp", "BitType",
    "BoolType", "CheckedProgram", "CompileError", "ControlStore", "Decl",
    "DictType", "DictValue", "EvalError", "HopContext", "IndusError",
    "IndusTypeError", "LexError", "Monitor", "MonitorState", "ParseError",
    "Program", "Report", "SensorStore", "SetType", "SetValue", "SourceSpan",
    "Symbol", "TupleType", "Type", "UnaryOp", "VarKind", "bits", "check",
    "mask", "parse", "parse_expression", "tokenize", "zero_value",
]
