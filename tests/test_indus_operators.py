"""Every Indus operator evaluates as the P4 operator it lowers to.

The reference monitor evaluates an operator with its own arithmetic, the
``eval`` of its row in ``repro.indus.ast``; the compiled pipeline runs
what ``lower`` emits for it through ``ir.BINARY_OPS`` / ``ir.UNARY_OPS``.
The oracle's levels can only agree if the two do, so this holds them
equal exhaustively: every operator, every width from 1 to 8, and every
operand pair at that width.  Booleans compare as 0 / 1, which is how the
wire carries them.
"""

import pytest

from repro.indus.ast import BinaryOp, OpKind, UnaryOp
from repro.p4.ir import BINARY_OPS, UNARY_OPS

WIDTHS = range(1, 9)

#: What ``lower`` emits for each unary operator: ``-x`` is ``0 - x``.
LOWERED_UNARY = {
    UnaryOp.NEG: lambda value, width: BINARY_OPS["-"].fn(0, value, width),
    UnaryOp.BNOT: UNARY_OPS["~"].fn,
    UnaryOp.NOT: UNARY_OPS["!"].fn,
}


def operands(op, width):
    """Every operand value at ``width``; a logical operator's are bools."""
    return (0, 1) if op.kind is OpKind.LOGICAL else range(1 << width)


@pytest.mark.parametrize("op", BinaryOp, ids=lambda op: op.value)
def test_a_binary_operator_evaluates_as_its_p4_operator(op):
    lowered = BINARY_OPS[op.value].fn
    wrong = [(width, left, right)
             for width in WIDTHS
             for left in operands(op, width)
             for right in operands(op, width)
             if int(op.eval(left, right, width)) != lowered(left, right, width)]
    assert not wrong, f"(width, left, right) first differing: {wrong[:5]}"


@pytest.mark.parametrize("op", UnaryOp, ids=lambda op: op.value)
def test_a_unary_operator_evaluates_as_its_p4_lowering(op):
    lowered = LOWERED_UNARY[op]
    wrong = [(width, value)
             for width in WIDTHS
             for value in operands(op, width)
             if int(op.eval(value, width)) != lowered(value, width)]
    assert not wrong, f"(width, value) first differing: {wrong[:5]}"
