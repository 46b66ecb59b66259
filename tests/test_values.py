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
    ZERO_DEGREE,
    curve_neighborhood,
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
    CHAIN.steps[0],
    mul(sr(-2), sr(5)),
    *curve_neighborhood(sr(5), Degree(1, 2)),
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
    # Roots share the componentwise order of degrees, with degrees too: the
    # edge (0, 1) does not fit under the budget (1, 0).
    pairs = [
        (Degree(1, 2), Degree(2, 1)),
        (Root(1, 2), Root(2, 1)),
        (Root(0, 1), Root(1, 0)),
        (Root(0, 1), Degree(1, 0)),
        (Degree(1, 0), Root(0, 1)),
        (Root(2, 1), Degree(1, 2)),
    ]
    for x, y in pairs:
        assert not (x <= y or y <= x or x < y or y < x or x >= y or x > y), (x, y)
        assert x != y
    assert Root(0, 1) <= Degree(0, 1) and Degree(0, 1) >= Root(0, 1)
    assert not (Root(0, 1) < Degree(0, 1) or Degree(0, 1) > Root(0, 1))
    assert Root(0, 1) < Degree(1, 1) and Degree(2, 2) > Root(1, 2)


def test_degrees_tied_in_one_coordinate_are_ordered_by_the_other():
    pairs = [
        (Degree(1, 1), Degree(1, 2)),
        (Degree(1, 1), Degree(2, 1)),
        (Degree(1, 1), Root(1, 2)),
        (Degree(1, 1), Root(2, 1)),
        (Root(0, 1), Degree(1, 1)),
        (Root(1, 0), Degree(1, 1)),
        (Root(1, 2), Degree(2, 2)),
    ]
    for low, high in pairs:
        assert (low < high, low <= high, high > low, high >= low) == (True,) * 4, (low, high)
        assert (high < low, high <= low, low > high, low >= high) == (False,) * 4, (low, high)


def test_degree_sum_is_componentwise():
    total = Degree(1, 2) + Degree(3, 4)
    assert type(total) is Degree
    assert total == Degree(4, 6)
    assert len(total) == 2


def test_roots_and_degrees_add_to_degrees():
    # A root is a degree, so a chain's degree is the sum of its roots.
    for total in (Root(0, 1) + Root(1, 0), Degree(0, 1) + Root(1, 0), Root(0, 1) + Degree(1, 0)):
        assert type(total) is Degree and total == Degree(1, 1)
    assert sum((Root(2, 1), Root(3, 2)), ZERO_DEGREE) == CHAIN.degree() == Degree(5, 3)


def test_element_repr_and_product():
    assert repr(sr(-3)) == "sr(-3)"
    assert sr(1) * sr(0) == mul(sr(1), sr(0)) == r(-1)
    assert r(2) * sr(5) == sr(3)


def test_values_equal_plain_tuples_with_the_same_fields():
    assert Degree(1, 2) == (1, 2) and (1, 2) == Degree(1, 2)
    assert Root(0, 1) != (1, 0) and (1, 0) != Root(0, 1)
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
    pytest.param(lambda: Root(0, 1) + (1, 0), id="root+tuple"),
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


def test_sequences_are_stored_as_tuples():
    # A list would leave the value unhashable and unequal to its tuple twin.
    chain = Chain(sr(0), list(CHAIN.steps))
    assert chain == CHAIN and type(chain.steps) is tuple
    assert hash(chain) == hash(CHAIN)
    report = DiffReport(1, 0, [STRAY])
    assert report == DiffReport(1, 0, (STRAY,)) and type(report.mismatches) is tuple
    assert hash(report) == hash(DiffReport(1, 0, (STRAY,)))


# Counts order only against counts: a plain tuple or an element on either side raises.
COUNTS_ORDERED_AGAINST_OTHERS = [
    pytest.param(lambda: Degree(1, 2) <= (2, 1), id="degree<=tuple"),
    pytest.param(lambda: (2, 1) >= Degree(1, 2), id="tuple>=degree"),
    pytest.param(lambda: Degree(1, 2) > (0, 0), id="degree>tuple"),
    pytest.param(lambda: (0, 0) < Degree(1, 2), id="tuple<degree"),
    pytest.param(lambda: Root(0, 1) < (1, 0), id="root<tuple"),
    pytest.param(lambda: (1, 0) > Root(0, 1), id="tuple>root"),
    pytest.param(lambda: Root(0, 1) >= (0, 0), id="root>=tuple"),
    pytest.param(lambda: (0, 0) <= Root(0, 1), id="tuple<=root"),
    pytest.param(lambda: Degree(1, 2) <= r(3), id="degree<=element"),
    pytest.param(lambda: Root(1, 0) > sr(0), id="root>element"),
    pytest.param(lambda: sorted([Degree(2, 1), (1, 2)]), id="sorted-degree-and-tuple"),
    pytest.param(lambda: sorted([(1, 2), Root(2, 1)]), id="sorted-tuple-and-root"),
    pytest.param(lambda: r(3) >= Degree(1, 2), id="element>=degree"),
    pytest.param(lambda: r(0) <= Degree(0, 1), id="element<=degree"),
    pytest.param(lambda: sr(0) < Root(0, 1), id="element<root"),
    pytest.param(lambda: sr(2) > Root(1, 0), id="element>root"),
    pytest.param(lambda: sorted([r(1), Degree(0, 1)]), id="sorted-element-and-degree"),
    pytest.param(lambda: sorted([Root(1, 0), sr(2)]), id="sorted-root-and-element"),
    pytest.param(lambda: sorted([r(0), (0, 5), Degree(0, 1)]), id="sorted-element-tuple-and-degree"),
]


@pytest.mark.parametrize("comparison", COUNTS_ORDERED_AGAINST_OTHERS)
def test_counts_refuse_to_order_against_other_tuples(comparison):
    with pytest.raises(TypeError):
        comparison()


def test_elements_keep_tuple_order_against_elements_and_plain_tuples():
    assert r(0) < sr(0) and sr(-1) <= sr(-1) and r(2) > r(1) and sr(0) >= r(5)
    assert r(0) < (0, 1) and (0, 1) > r(0)
    assert (True, 0) <= sr(0) and sr(0) >= (True, 0)
    assert sorted([sr(-1), (0, 5), r(1)]) == [r(1), (0, 5), sr(-1)]
