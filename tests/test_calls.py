"""The call recorder that the work pins read their counts from."""

import sys

import pytest

from calls import Calls


def _two_lambdas():
    return (lambda x: x + 1), (lambda x: x * 2)


def _count_up(n):
    for i in range(n):
        yield i
    return "done"


def _fail():
    raise ZeroDivisionError


def test_two_lambdas_of_one_function_are_counted_apart():
    increment, double = _two_lambdas()
    assert increment.__code__.co_name == double.__code__.co_name == "<lambda>"
    with Calls() as calls:
        increment(1), double(2), double(3)
    assert (calls[increment].entries, calls[increment].args, calls[increment].values) == (
        1, [(1,)], [2]
    )
    assert (calls[double].entries, calls[double].args, calls[double].values) == (
        2, [(2,), (3,)], [4, 6]
    )


def test_a_generators_first_entries_are_counted_apart_from_its_resumes():
    with Calls() as calls:
        assert list(_count_up(3)) == [0, 1, 2]
        started = _count_up(5)
        next(started)
        unstarted = _count_up(7)  # never entered; held, since closing may enter it
    record = calls[_count_up]
    assert (record.entries, record.resumes, record.args) == (2, 3, [(3,), (5,)])
    # The run to the end yields three values and returns its own; the other yields one.
    assert record.values == [0, 1, 2, "done", 0]
    assert calls[_fail].entries == 0 and calls[_fail].values == []


def test_nested_blocks_and_exceptions_restore_the_previous_profile_function():
    before = sys.getprofile()
    with Calls() as outer:
        with Calls() as inner:
            _two_lambdas()
        assert sys.getprofile() == outer._profile
        with pytest.raises(ZeroDivisionError):
            with Calls() as failed:
                _fail()
        assert sys.getprofile() == outer._profile
        assert list(_count_up(1)) == [0]
    assert sys.getprofile() is before
    # An inner block is seen by its own recorder only, and a raising frame returns None.
    assert (inner[_two_lambdas].entries, outer[_two_lambdas].entries) == (1, 0)
    assert (failed[_fail].entries, failed[_fail].values, outer[_fail].entries) == (1, [None], 0)
    assert list(inner.records) == [_two_lambdas.__code__]
    assert (outer[_count_up].entries, outer[_count_up].values) == (1, [0, "done"])
