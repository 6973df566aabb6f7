"""The Indus type system (Figure 4 of the paper).

Types are immutable values with structural equality:

* ``bit<n>``  — fixed-width unsigned bitstrings,
* ``bool``,
* ``t[n]``    — fixed-capacity arrays (compiled to P4 header stacks),
* ``set<t>`` — sets with a static capacity bound,
* ``dict<k, v>`` — dictionaries (compiled to match-action tables),
* tuples      — used for dictionary keys and report payloads.

Every type knows its serialized width in bits (``width_bits``), which the
compiler uses to lay out the Hydra telemetry header and the Tofino model
uses to account for PHV usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


class Type:
    """Base class for Indus types."""

    def width_bits(self) -> int:
        """Serialized width of a value of this type, in bits."""
        raise NotImplementedError

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

    def width_bits(self) -> int:
        return self.width

    def __str__(self) -> str:
        return f"bit<{self.width}>"

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class BoolType(Type):
    """``bool`` — serialized as a single bit on the wire."""

    def width_bits(self) -> int:
        return 1

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

    def width_bits(self) -> int:
        # One validity bit per slot mirrors P4 header-stack semantics.
        return (self.element.width_bits() + 1) * self.capacity

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

    def width_bits(self) -> int:
        return (self.element.width_bits() + 1) * self.capacity

    def __str__(self) -> str:
        return f"set<{self.element}>"


@dataclass(frozen=True)
class DictType(Type):
    """``dict<k, v>`` — realized as a match-action table in P4."""

    key: Type
    value: Type

    def width_bits(self) -> int:
        # Dicts never travel on the packet; only a looked-up value does.
        return self.value.width_bits()

    def is_packable(self) -> bool:
        return False

    def __str__(self) -> str:
        return f"dict<{self.key}, {self.value}>"


@dataclass(frozen=True)
class TupleType(Type):
    """A product type, e.g. ``(bit<32>, bit<32>)`` used as a dict key."""

    elements: Tuple[Type, ...] = field(default_factory=tuple)

    def width_bits(self) -> int:
        return sum(e.width_bits() for e in self.elements)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"({inner})"


BOOL = BoolType()


def bits(width: int) -> BitType:
    """Shorthand constructor for ``bit<width>``."""
    return BitType(width)
