"""The Indus type system (Figure 4 of the paper).

Types are immutable values with structural equality:

* ``bit<n>``  — fixed-width unsigned bitstrings,
* ``bool``,
* ``t[n]``    — fixed-capacity arrays (compiled to P4 header stacks),
* ``set<t>`` — sets with a static capacity bound,
* ``dict<k, v>`` — dictionaries (compiled to match-action tables),
* tuples      — used for dictionary keys and report payloads.

A type carries no wire width of its own: the compiler's
:class:`~repro.compiler.layout.HydraLayout` lays telemetry variables out
as header fields (slot fields, validity bits and a count field), and the
Tofino model counts the PHV bits of the fields it emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class Type:
    """Base class for Indus types."""

    def is_packable(self) -> bool:
        """Whether values of this type can travel on the packet (tele vars)."""
        return True


@dataclass(frozen=True)
class BitType(Type):
    """``bit<n>`` — an unsigned integer of exactly ``n`` bits."""

    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"bit width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"bit<{self.width}>"

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class BoolType(Type):
    """``bool`` — serialized as a single bit on the wire."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class ArrayType(Type):
    """``t[n]`` — a fixed-capacity array with a push cursor.

    Arrays model the per-hop telemetry lists of the paper: ``push`` appends
    (up to the static capacity) and ``for`` iterates over the pushed prefix.
    """

    element: Type
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"array capacity must be positive, got {self.capacity}")

    def __str__(self) -> str:
        return f"{self.element}[{self.capacity}]"


@dataclass(frozen=True)
class SetType(Type):
    """``set<t>`` — a set with a static capacity bound.

    Control-plane sets are realized as match tables; tele/sensor sets are
    bounded, statically allocated collections.
    """

    element: Type
    capacity: int = 64

    def __str__(self) -> str:
        return f"set<{self.element}>"


@dataclass(frozen=True)
class DictType(Type):
    """``dict<k, v>`` — realized as a match-action table in P4."""

    key: Type
    value: Type

    def is_packable(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"dict<{self.key}, {self.value}>"


@dataclass(frozen=True)
class TupleType(Type):
    """A product type, e.g. ``(bit<32>, bit<32>)`` used as a dict key."""

    elements: Tuple[Type, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"({inner})"


BOOL = BoolType()


def bits(width: int) -> BitType:
    """Shorthand constructor for ``bit<width>``."""
    return BitType(width)


def width_of(ty: Optional[Type]) -> int:
    """``n`` for ``bit<n>``; 32 for anything else (a bool, an untyped node)."""
    return ty.width if isinstance(ty, BitType) else 32
