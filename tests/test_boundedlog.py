"""BoundedLog behavior: ring bounds, counters, list-like reads."""

import pytest

from repro.p4.bmv2 import BoundedLog


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedLog(0)
    with pytest.raises(ValueError):
        BoundedLog(-3)


def test_only_an_empty_log_resizes():
    """``resize`` keeps the log object (whoever bound it keeps writing
    to it) and refuses a log that has taken entries."""
    log = BoundedLog(8)
    log.resize(2)
    for i in range(3):
        log.append(i)
    assert log == [1, 2] and log.capacity == 2 and log.dropped == 1
    with pytest.raises(ValueError):
        log.resize(4)
    with pytest.raises(ValueError):
        BoundedLog().resize(0)


def test_append_within_capacity():
    log = BoundedLog(4)
    for i in range(3):
        log.append(i)
    assert len(log) == 3
    assert log.total == 3
    assert log.dropped == 0
    assert list(log) == [0, 1, 2]


def test_overflow_drops_oldest_and_counts():
    log = BoundedLog(3)
    for i in range(10):
        log.append(i)
    assert len(log) == 3
    assert log.total == 10
    assert log.dropped == 7
    assert list(log) == [7, 8, 9]


def test_indexing_and_slicing():
    log = BoundedLog(5)
    for i in range(5):
        log.append(i * 10)
    assert log[0] == 0
    assert log[-1] == 40
    assert log[1:3] == [10, 20]
    assert log[::2] == [0, 20, 40]
    assert log[5:] == []
    with pytest.raises(IndexError):
        log[7]


def test_equality_against_lists_and_logs():
    a = BoundedLog(4)
    b = BoundedLog(8)          # different capacity, same contents
    for i in (1, 2, 3):
        a.append(i)
        b.append(i)
    assert a == [1, 2, 3]
    assert a == b
    assert not a == [1, 2]
    assert a != [3, 2, 1]
    # Comparing against unrelated types falls back to NotImplemented.
    assert (a == "123") is False


def test_clear_resets_counters():
    log = BoundedLog(2)
    for i in range(5):
        log.append(i)
    assert log.dropped == 3
    log.clear()
    assert len(log) == 0
    assert log.total == 0
    assert log.dropped == 0
    assert not log
    log.append("x")
    assert log.total == 1
    assert list(log) == ["x"]


def test_bool_and_repr():
    log = BoundedLog(2)
    assert not log
    log.append(1)
    assert log
    assert "total=1" in repr(log)


def test_repr_reports_eviction_count():
    log = BoundedLog(2)
    assert "evicted=0" in repr(log)
    for i in range(5):
        log.append(i)
    assert "evicted=3" in repr(log)


def test_on_evict_callback_fires_per_eviction():
    evictions = []
    log = BoundedLog(3, on_evict=evictions.append)
    for i in range(3):
        log.append(i)
    assert evictions == []            # within capacity: no callback
    log.append(3)
    log.append(4)
    assert evictions == [1, 1]        # one call per evicted entry
    assert sum(evictions) == log.dropped
    log.clear()
    log.append("x")
    assert evictions == [1, 1]        # clear resets, no spurious calls
