"""Runtime value representations shared by the Indus interpreter and the
P4 behavioral model.

Scalar values are plain Python ``int``/``bool``; aggregates get small
wrapper classes that enforce the static-allocation discipline of the
language (fixed capacities, push cursors mirroring P4 header stacks).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from .types import (ArrayType, BitType, BoolType, DictType, SetType,
                    TupleType, Type)


def mask(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits (unsigned wraparound)."""
    return value & ((1 << width) - 1)


def zero_value(ty: Type) -> Any:
    """The default value of a type: 0 / false / empty aggregates."""
    if isinstance(ty, BitType):
        return 0
    if isinstance(ty, BoolType):
        return False
    if isinstance(ty, ArrayType):
        return ArrayValue(ty)
    if isinstance(ty, SetType):
        return SetValue(ty)
    if isinstance(ty, DictType):
        return DictValue(ty)
    if isinstance(ty, TupleType):
        return tuple(zero_value(e) for e in ty.elements)
    raise ValueError(f"no zero value for {ty}")


def coerce(ty: Type, value: Any) -> Any:
    """Fit a host-provided value into ``ty`` (masking bit values)."""
    if isinstance(ty, BitType):
        return mask(int(value), ty.width)
    if isinstance(ty, BoolType):
        return bool(value)
    if isinstance(ty, TupleType):
        items = tuple(value)
        if len(items) != len(ty.elements):
            raise ValueError(f"tuple arity mismatch for {ty}: {value!r}")
        return tuple(coerce(e, v) for e, v in zip(ty.elements, items))
    return value


class ArrayValue:
    """A fixed-capacity array with a push cursor.

    Mirrors a P4 header stack: slots become valid as values are pushed;
    ``for`` iterates over valid slots only; pushing past capacity drops
    the value (the compiler emits the same saturating behaviour).
    """

    def __init__(self, ty: ArrayType, items: Iterable[Any] = ()):
        self.ty = ty
        self.slots: List[Any] = [zero_value(ty.element)] * ty.capacity
        self.count = 0
        for item in items:
            self.push(item)

    def push(self, value: Any) -> bool:
        """Append ``value``; returns False (and drops it) when full."""
        if self.count >= self.ty.capacity:
            return False
        self.slots[self.count] = coerce(self.ty.element, value)
        self.count += 1
        return True

    def get(self, index: int) -> Any:
        """Read slot ``index``; out-of-range reads yield the zero value,
        matching the compiled code's behaviour on invalid stack entries."""
        if 0 <= index < self.ty.capacity:
            return self.slots[index]
        return zero_value(self.ty.element)

    def set(self, index: int, value: Any) -> None:
        if not 0 <= index < self.ty.capacity:
            return  # out-of-range writes are dropped, as on hardware
        self.slots[index] = coerce(self.ty.element, value)
        self.count = max(self.count, index + 1)

    def valid_items(self) -> List[Any]:
        return self.slots[: self.count]

    def __contains__(self, value: Any) -> bool:
        return coerce(self.ty.element, value) in self.valid_items()

    def __len__(self) -> int:
        return self.count

    def copy(self) -> "ArrayValue":
        clone = ArrayValue(self.ty)
        clone.slots = list(self.slots)
        clone.count = self.count
        return clone

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ArrayValue) and other.ty == self.ty
                and other.valid_items() == self.valid_items())

    def __repr__(self) -> str:
        return f"ArrayValue({self.valid_items()!r})"


class SetValue:
    """A capacity-bounded set."""

    def __init__(self, ty: SetType, items: Iterable[Any] = ()):
        self.ty = ty
        self.items: set = set()
        for item in items:
            self.add(item)

    def add(self, value: Any) -> bool:
        value = coerce(self.ty.element, value)
        if value in self.items:
            return True
        if len(self.items) >= self.ty.capacity:
            return False
        self.items.add(value)
        return True

    def __contains__(self, value: Any) -> bool:
        return coerce(self.ty.element, value) in self.items

    def __len__(self) -> int:
        return len(self.items)

    def valid_items(self) -> List[Any]:
        return sorted(self.items)

    def copy(self) -> "SetValue":
        clone = SetValue(self.ty)
        clone.items = set(self.items)
        return clone

    def __repr__(self) -> str:
        return f"SetValue({sorted(self.items)!r})"


class DictValue:
    """A dictionary with miss-as-zero lookup semantics.

    Control-plane dictionaries compile to match-action tables whose miss
    behaviour is the default action; looking up an absent key therefore
    yields the zero value of the value type (e.g. ``false`` for the
    stateful firewall's ``allowed`` dict).
    """

    def __init__(self, ty: DictType, entries: Dict[Any, Any] = None):
        self.ty = ty
        self.entries: Dict[Any, Any] = {}
        for key, value in (entries or {}).items():
            self.put(key, value)

    def put(self, key: Any, value: Any) -> None:
        self.entries[coerce(self.ty.key, key)] = coerce(self.ty.value, value)

    def remove(self, key: Any) -> None:
        self.entries.pop(coerce(self.ty.key, key), None)

    def get(self, key: Any) -> Any:
        return self.entries.get(coerce(self.ty.key, key),
                                zero_value(self.ty.value))

    def __contains__(self, key: Any) -> bool:
        return coerce(self.ty.key, key) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "DictValue":
        clone = DictValue(self.ty)
        clone.entries = dict(self.entries)
        return clone

    def __repr__(self) -> str:
        return f"DictValue({self.entries!r})"
