"""Runtime value representation tests."""

import pytest

from repro.indus.types import (ArrayType, BitType, BoolType, DictType,
                               SetType, TupleType)
from repro.indus.values import (ArrayValue, DictValue, SetValue, coerce,
                                mask, zero_value)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def test_mask_truncates():
    assert mask(0x1FF, 8) == 0xFF
    assert mask(-1, 4) == 0xF


def test_zero_values():
    assert zero_value(BitType(8)) == 0
    assert zero_value(BoolType()) is False
    assert len(zero_value(ArrayType(BitType(8), 4))) == 0
    assert len(zero_value(SetType(BitType(8)))) == 0
    assert len(zero_value(DictType(BitType(8), BitType(8)))) == 0
    assert zero_value(TupleType((BitType(8), BoolType()))) == (0, False)


def test_coerce_masks_bit_values():
    assert coerce(BitType(8), 300) == 300 & 0xFF
    assert coerce(BoolType(), 2) is True
    assert coerce(TupleType((BitType(4), BoolType())), (20, 0)) == (4, False)


def test_coerce_tuple_arity_mismatch():
    with pytest.raises(ValueError):
        coerce(TupleType((BitType(4),)), (1, 2))


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------

def test_array_push_and_capacity():
    arr = ArrayValue(ArrayType(BitType(8), 3))
    assert arr.push(1) and arr.push(2) and arr.push(3)
    assert not arr.push(4)  # saturates
    assert arr.valid_items() == [1, 2, 3]


def test_array_get_out_of_range_is_zero():
    arr = ArrayValue(ArrayType(BitType(8), 3), [5])
    assert arr.get(0) == 5
    assert arr.get(2) == 0   # unset slot
    assert arr.get(99) == 0  # out of range


def test_array_set_extends_count():
    arr = ArrayValue(ArrayType(BitType(8), 4))
    arr.set(2, 7)
    assert len(arr) == 3
    assert arr.get(2) == 7


def test_array_set_out_of_range_is_dropped():
    arr = ArrayValue(ArrayType(BitType(8), 2))
    arr.set(5, 1)
    assert len(arr) == 0


def test_array_contains_checks_valid_prefix_only():
    arr = ArrayValue(ArrayType(BitType(8), 4), [1])
    assert 1 in arr
    assert 0 not in arr  # slot 1..3 are zero but invalid


def test_array_copy_is_independent():
    arr = ArrayValue(ArrayType(BitType(8), 4), [1, 2])
    clone = arr.copy()
    clone.push(3)
    assert len(arr) == 2 and len(clone) == 3


# ---------------------------------------------------------------------------
# Sets and dicts
# ---------------------------------------------------------------------------

def test_set_capacity_bound():
    s = SetValue(SetType(BitType(8), 2))
    assert s.add(1) and s.add(2)
    assert not s.add(3)
    assert s.add(1)  # re-adding an existing element is fine


def test_dict_miss_yields_zero_value():
    d = DictValue(DictType(BitType(8), BoolType()))
    assert d.get(42) is False
    d.put(42, True)
    assert d.get(42) is True


def test_dict_key_coercion():
    d = DictValue(DictType(BitType(8), BitType(8)))
    d.put(0x1FF, 7)
    assert d.get(0xFF) == 7  # masked key collides deliberately


def test_dict_remove():
    d = DictValue(DictType(BitType(8), BitType(8)), {1: 2})
    d.remove(1)
    assert d.get(1) == 0
    d.remove(1)  # idempotent
