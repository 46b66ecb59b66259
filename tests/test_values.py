"""The public value types are NamedTuples: immutable, hashable, picklable, and
validated however they are built, ``_make`` and ``_replace`` included."""

import copy
import pickle

import pytest

from dcn import (
    Chain,
    ChainStep,
    Degree,
    DiffReport,
    Mismatch,
    Root,
    differential_check,
    mul,
    r,
    sr,
)
from reference import neighborhood_result

CHAIN = Chain(sr(0), (ChainStep(Root(2, 1), r(-1)), ChainStep(Root(3, 2), sr(-1))))
STRAY = Mismatch(r(0), Degree(0, 0), frozenset({r(0)}), frozenset({sr(1)}))

VALUES = [
    sr(-3),
    Degree(1, 2),
    Root(1, 0),
    CHAIN,
    STRAY,
    DiffReport(1, 0, (STRAY,)),
    differential_check(2, Degree(1, 1)),
    neighborhood_result(sr(0), Degree(2, 3)),
]
VALUE_IDS = [f"{type(v).__name__}-{i}" for i, v in enumerate(VALUES)]

# A valid value of each validated type, and a change of fields that breaks it.
INVALID_CHANGES = [
    pytest.param(Degree(1, 2), {"a": -1}, id="Degree"),
    pytest.param(Root(1, 0), {"b": 3}, id="Root"),
    pytest.param(CHAIN, {"start": r(0)}, id="Chain-not-an-edge"),
    pytest.param(
        Chain(sr(1)), {"steps": (ChainStep(Root(0, 1), r(0)),)}, id="Chain-not-increasing"
    ),
    pytest.param(DiffReport(1, 0, (STRAY,)), {"cases_total": 2}, id="DiffReport"),
]


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
def test_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
def test_pickle_and_deepcopy_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value
        assert type(twin) is type(value)
        assert hash(twin) == hash(value)


@pytest.mark.parametrize(("value", "changes"), INVALID_CHANGES)
def test_replace_validates(value, changes):
    with pytest.raises(ValueError):
        value._replace(**changes)


@pytest.mark.parametrize(("value", "changes"), INVALID_CHANGES)
def test_make_validates(value, changes):
    with pytest.raises(ValueError):
        type(value)._make({**value._asdict(), **changes}.values())


def test_valid_replace_and_make_keep_the_type():
    assert type(Degree(1, 2)._replace(a=3)) is Degree
    assert Degree(1, 2)._replace(a=3) == Degree(3, 2)
    assert Root._make([2, 3]) == Root(2, 3)
    assert Chain._make([sr(0), CHAIN.steps[:1]]).end == r(-1)
    assert DiffReport._make([1, 1, ()]).ok


def test_degrees_one_apart_are_incomparable():
    x, y = Degree(1, 2), Degree(2, 1)
    assert not (x <= y or y <= x or x < y or y < x or x >= y or x > y)
    assert x != y


def test_degree_sum_is_componentwise():
    total = Degree(1, 2) + Degree(3, 4)
    assert type(total) is Degree
    assert total == Degree(4, 6)
    assert len(total) == 2


def test_element_repr_and_product():
    assert repr(sr(-3)) == "sr(-3)"
    assert sr(1) * sr(0) == mul(sr(1), sr(0)) == r(-1)
    assert r(2) * sr(5) == sr(3)


def test_values_equal_plain_tuples_with_the_same_fields():
    assert Degree(1, 2) == (1, 2)
    assert r(0) == Degree(0, 0)
    assert {Root(1, 0): "x"}[(1, 0)] == "x"


# Elements and the validated types are tuples, but ``+`` and ``*`` never
# concatenate or repeat them.
TUPLE_ARITHMETIC = [
    pytest.param(lambda: r(1) + r(2), id="element+element"),
    pytest.param(lambda: 2 * r(1), id="int*element"),
    pytest.param(lambda: r(1) * 2, id="element*int"),
    pytest.param(lambda: r(1) + (1,), id="element+tuple"),
    pytest.param(lambda: Degree(1, 2) * 2, id="degree*int"),
    pytest.param(lambda: 2 * Degree(1, 2), id="int*degree"),
    pytest.param(lambda: Degree(1, 2) + (1, 1), id="degree+tuple"),
    pytest.param(lambda: Root(0, 1) + Root(1, 0), id="root+root"),
    pytest.param(lambda: CHAIN + CHAIN, id="chain+chain"),
    pytest.param(lambda: DiffReport(1, 0, (STRAY,)) * 2, id="report*int"),
    pytest.param(lambda: CHAIN.steps[0] + CHAIN.steps[1], id="step+step"),
    pytest.param(lambda: CHAIN.steps[0] * 2, id="step*int"),
    pytest.param(lambda: 2 * CHAIN.steps[0], id="int*step"),
    pytest.param(lambda: STRAY + STRAY, id="mismatch+mismatch"),
    pytest.param(lambda: STRAY * 2, id="mismatch*int"),
    pytest.param(lambda: 2 * STRAY, id="int*mismatch"),
]


@pytest.mark.parametrize("operation", TUPLE_ARITHMETIC)
def test_tuple_arithmetic_raises_type_error(operation):
    with pytest.raises(TypeError):
        operation()


def test_degree_sum_and_element_product_still_work():
    assert Degree(1, 2) + Degree(3, 4) == Degree(4, 6)
    assert r(1) * r(2) == r(3)
    assert sr(2) * r(1) == sr(3)


def test_plain_tuple_on_the_left_still_concatenates():
    # tuple's own ``+`` runs once the value type returns NotImplemented.
    assert (1,) + r(1) == (1, False, 1)
