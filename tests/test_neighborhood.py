"""Bounded enumeration, the additive-length filter, and the closed form."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

import dcn.neighborhood
from dcn import (
    COEFFICIENT_BOUND,
    Degree,
    GroupElement,
    ad_set,
    curve_neighborhood,
    curve_neighborhood_oracle,
    enumerate_up_to_length,
    explicit_length,
    maximal_elements,
    mul,
    phi,
    r,
    reduced_word,
    sort_elements,
    sr,
)
from dcn.dihedral import alternating_element
from dcn.neighborhood import _ascents, ad_size
from calls import Calls
from reference import (
    ascents,
    degrees_up_to,
    gamma_by_longest_word,
    is_subword,
    mirror,
    neighborhood_result,
    parity_witness,
)

elements = st.builds(GroupElement, st.booleans(), st.integers(-10**6, 10**6))


# -- enumeration -----------------------------------------------------------------

def test_enumerate_up_to_length_values():
    # In printed order: by length, then by k.
    assert enumerate_up_to_length(-1) == []
    assert enumerate_up_to_length(0) == [r(0)]
    assert enumerate_up_to_length(1) == [r(0), sr(0), sr(1)]
    assert enumerate_up_to_length(3) == [r(0), sr(0), sr(1), r(-1), r(1), sr(-1), sr(2)]


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_cardinality_and_lengths(n):
    found = enumerate_up_to_length(n)
    assert len(found) == 2 * n + 1
    assert all(explicit_length(g) <= n for g in found)
    # exactly two elements at each positive length
    for length in range(1, n + 1):
        assert sum(1 for g in found if explicit_length(g) == length) == 2


# -- the ascent rule -----------------------------------------------------------------

@pytest.mark.parametrize("is_reflection", [False, True])
def test_ascents_follow_the_sign_of_k(is_reflection):
    for k in range(-50, 51):
        u = GroupElement(is_reflection, k)
        assert _ascents(u) == ascents(u), u


@given(st.builds(
    GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)
))
def test_ascents_follow_the_sign_of_k_up_to_the_bound(u):
    assert _ascents(u) == ascents(u)


def test_the_closed_form_makes_no_product(monkeypatch):
    # gamma is read off the table: one element per table entry, no word, and no
    # product, since the module imports no mul (see the next test).  _element is a C
    # call, which sys.setprofile does not report on every Python version, so a
    # stand-in that builds nothing records the fields of each element asked for.
    built = []
    for u in (r(0), sr(0), sr(1), r(3), sr(-4)):
        for d in (Degree(0, 0), Degree(1, 1), Degree(2, 3), Degree(3, 2), Degree(3, 3)):
            with Calls() as calls:
                ad_size(u, d)
                gamma = curve_neighborhood(u, d)
            assert calls[alternating_element].entries == 0
            assert {type(g) for g in gamma} == {GroupElement}
            with monkeypatch.context() as patch:
                patch.setattr(dcn.neighborhood, "_element", built.append)
                curve_neighborhood(u, d)
            assert set(built) == {tuple(g) for g in gamma}
            # At u = 1 and d = (0, 0) the two entries r(a) and r(-a) are both r(0).
            assert len(built) == (2 if u == r(0) and d.a == d.b else len(gamma))
            built.clear()


def test_the_closed_form_computes_no_length():
    for name in ("explicit_length", "mul", "phi"):
        assert not hasattr(dcn.neighborhood, name)
    assert maximal_elements.__module__ == "dcn.oracle"


# -- the additive-length filter ----------------------------------------------------

def test_ad_set_zero_degree():
    for u in (r(0), sr(3), r(-2)):
        assert ad_set(u, Degree(0, 0)) == frozenset({r(0)})


def test_ad_set_identity_budget_1_1():
    assert ad_set(r(0), Degree(1, 1)) == frozenset({r(0), sr(0), sr(1), r(1), r(-1)})


def test_ad_set_s0_budget_2_3():
    # walk the multiplication table: sr(0)*sr(m) = r(m) lengthens only for m > 0,
    # sr(0)*r(-k) = sr(-k) lengthens for k > 0; letter-count bounds prune the rest
    assert ad_set(sr(0), Degree(2, 3)) == frozenset(
        {r(0), r(-1), r(-2), sr(1), sr(2), sr(3)}
    )


def test_ad_set_always_contains_identity_and_respects_bounds():
    for u in sort_elements(enumerate_up_to_length(4)):
        for d in degrees_up_to(Degree(2, 2)):
            found = ad_set(u, d)
            assert r(0) in found
            for v in found:
                assert phi(v) <= d
                assert explicit_length(v) <= d.a + d.b



def test_ad_size_counts_ad_set_without_building_it():
    for u in sort_elements(enumerate_up_to_length(6)):
        for d in degrees_up_to(Degree(6, 6)):
            assert ad_size(u, d) == len(ad_set(u, d))
    assert ad_size(sr(0), Degree(131071, 131071)) == 262143
    assert ad_size(r(0), Degree(2**31, 2**31)) == 2 * 2**32 + 1


# -- maximal elements ----------------------------------------------------------------

def test_maximal_elements():
    assert maximal_elements({r(0)}) == frozenset({r(0)})
    assert maximal_elements({r(0), sr(0), sr(1), r(1), r(-1)}) == frozenset({r(1), r(-1)})
    assert maximal_elements(ad_set(sr(0), Degree(2, 3))) == frozenset({sr(3)})


def test_maximal_elements_rejects_empty_input():
    with pytest.raises(ValueError):
        maximal_elements(frozenset())


# -- the closed form ------------------------------------------------------------------

def test_curve_neighborhood_identity_2_2():
    assert curve_neighborhood(r(0), Degree(2, 2)) == frozenset({r(2), r(-2)})


def test_curve_neighborhood_zero_degree():
    for u in (r(0), sr(5), r(-3)):
        assert curve_neighborhood(u, Degree(0, 0)) == frozenset({u})


def test_curve_neighborhood_identity_1_1():
    assert curve_neighborhood(r(0), Degree(1, 1)) == frozenset({r(1), r(-1)})


def test_curve_neighborhood_s0_2_3():
    assert curve_neighborhood(sr(0), Degree(2, 3)) == frozenset({r(3)})


def test_curve_neighborhood_s0_3_3():
    # one degree step further the answer flips to a reflection
    assert curve_neighborhood(sr(0), Degree(3, 3)) == frozenset({sr(-3)})


# One worked case per row of the table in the neighborhood docstring and per type of u.
TABLE_ROWS = [
    pytest.param(r(2), Degree(1, 3), {r(3)}, id="k>0,a<=b,rotation"),
    pytest.param(sr(2), Degree(1, 3), {sr(3)}, id="k>0,a<=b,reflection"),
    pytest.param(r(1), Degree(2, 2), {r(3)}, id="k>0,a=b,rotation"),
    pytest.param(r(2), Degree(3, 1), {sr(-3)}, id="k>0,a>b,rotation"),
    pytest.param(sr(2), Degree(3, 1), {r(-3)}, id="k>0,a>b,reflection"),
    pytest.param(r(-2), Degree(3, 1), {r(-3)}, id="k<=0,b<=a,rotation"),
    pytest.param(sr(0), Degree(3, 1), {sr(-1)}, id="k<=0,b<=a,reflection"),
    pytest.param(sr(-1), Degree(2, 2), {sr(-3)}, id="k<=0,b=a,reflection"),
    pytest.param(r(-2), Degree(1, 3), {sr(4)}, id="k<=0,b>a,rotation"),
    pytest.param(sr(0), Degree(1, 3), {r(2)}, id="k<=0,b>a,reflection"),
    pytest.param(r(0), Degree(2, 2), {r(2), r(-2)}, id="identity,a=b"),
    pytest.param(r(0), Degree(2, 3), {sr(3)}, id="identity,a<b"),
    pytest.param(r(0), Degree(3, 2), {sr(-2)}, id="identity,a>b"),
]


@pytest.mark.parametrize("u, d, expected", TABLE_ROWS)
def test_curve_neighborhood_table_rows(u, d, expected):
    assert curve_neighborhood(u, d) == frozenset(expected)
    assert curve_neighborhood_oracle(u, d) == frozenset(expected)
    assert gamma_by_longest_word(u, d) == frozenset(expected)


def _entered(function, *args):
    """(name, first entries) of each Python function entered while ``function(*args)`` runs."""
    with Calls() as calls:
        function(*args)
    return [(code.co_name, record.entries) for code, record in calls.records.items()]


@pytest.mark.parametrize(
    "u, d, expected",
    [*TABLE_ROWS, pytest.param(sr(-2**31), Degree(2**31, 1), {sr(-2**31 - 1)}, id="|k|=2**31")],
)
def test_the_closed_form_enters_no_other_python_function(u, d, expected):
    # Each element is built by _element, a C call; the namedtuple's GroupElement(...)
    # would show here as a <lambda> call, a cost that timing alone cannot resolve.
    assert _entered(curve_neighborhood, u, d) == [("curve_neighborhood", 1)]


@pytest.mark.parametrize("g, h", [(r(3), r(-5)), (r(3), sr(-5)), (sr(3), r(-5)), (sr(3), sr(-5))])
def test_mul_enters_no_other_python_function(g, h):
    assert _entered(mul, g, h) == [("mul", 1)]


def test_the_closed_form_reads_fields_by_name():
    # A plain tuple has no field names, so neither argument may be one.
    with pytest.raises(AttributeError):
        curve_neighborhood((True, 3), Degree(1, 2))
    with pytest.raises(AttributeError):
        curve_neighborhood(r(1), (1, 2))


@pytest.mark.parametrize("is_reflection", [False, True])
def test_curve_neighborhood_is_u_times_the_longest_word(is_reflection):
    for k in range(-50, 51):
        u = GroupElement(is_reflection, k)
        for d in degrees_up_to(Degree(12, 12)):
            assert curve_neighborhood(u, d) == gamma_by_longest_word(u, d), (u, d)


@given(
    st.builds(GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)),
    st.builds(Degree, st.integers(0, COEFFICIENT_BOUND), st.integers(0, COEFFICIENT_BOUND)),
)
def test_curve_neighborhood_is_u_times_the_longest_word_up_to_the_bound(u, d):
    assert curve_neighborhood(u, d) == gamma_by_longest_word(u, d)


def test_curve_neighborhood_far_from_identity():
    # cost depends only on d, so distant base points are fine
    big = 10**9
    assert curve_neighborhood(r(big), Degree(1, 1)) == frozenset({r(big + 1)})


def test_neighborhood_result_invariants():
    for u in sort_elements(enumerate_up_to_length(4)):
        for d in degrees_up_to(Degree(3, 3)):
            result = neighborhood_result(u, d)
            assert result.maximal <= result.ad
            assert result.gamma == frozenset(mul(u, w) for w in result.maximal)
            assert 1 <= len(result.gamma) <= 2


def test_gamma_uniform_length_and_dominance():
    for u in sort_elements(enumerate_up_to_length(4)):
        for d in degrees_up_to(Degree(3, 3)):
            result = neighborhood_result(u, d)
            top = max(explicit_length(w) for w in result.ad)
            assert all(
                explicit_length(v) == explicit_length(u) + top for v in result.gamma
            )
            for z in result.ad:
                assert any(is_subword(reduced_word(z), reduced_word(w)) for w in result.maximal)


def test_identity_neighborhood_mirror_symmetry():
    for t in range(5):
        gamma = curve_neighborhood(r(0), Degree(t, t))
        assert gamma == frozenset(mirror(v) for v in gamma)


# -- parity witnesses -----------------------------------------------------------------

def test_parity_witness_examples():
    assert parity_witness(r(0), sr(9)) == (0, 0)
    assert parity_witness(sr(0), sr(0)) == (1, 0)
    assert parity_witness(r(2), r(-1)) == (1, 1)


@given(elements, elements)
def test_parity_witness_reconstructs_counts(g, h):
    wit_r, wit_s = parity_witness(g, h)
    after = phi(mul(g, h))
    assert phi(g).a + phi(h).a == after.a + 2 * wit_r
    assert phi(g).b + phi(h).b == after.b + 2 * wit_s
