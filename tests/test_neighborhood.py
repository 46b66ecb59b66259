"""Bounded enumeration, the additive-length filter, and the closed form."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

import dcn.neighborhood
from dcn import (
    COEFFICIENT_BOUND,
    Degree,
    Generator,
    GroupElement,
    ad_set,
    bruhat_le,
    curve_neighborhood,
    degrees_up_to,
    embed,
    enumerate_up_to_length,
    explicit_length,
    maximal_elements,
    mul,
    parity_witness,
    phi,
    r,
    sort_elements,
    sr,
)
from dcn.neighborhood import _ascents, ad_size
from reference import mirror, neighborhood_result

elements = st.builds(GroupElement, st.booleans(), st.integers(-10**6, 10**6))


# -- enumeration -----------------------------------------------------------------

def test_enumerate_up_to_length_values():
    assert enumerate_up_to_length(0) == frozenset({r(0)})
    assert enumerate_up_to_length(1) == frozenset({r(0), sr(0), sr(1)})
    assert enumerate_up_to_length(3) == frozenset(
        {r(0), sr(0), sr(1), r(1), r(-1), sr(2), sr(-1)}
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_cardinality_and_lengths(n):
    found = enumerate_up_to_length(n)
    assert len(found) == 2 * n + 1
    assert all(explicit_length(g) <= n for g in found)
    # exactly two elements at each positive length
    for length in range(1, n + 1):
        assert sum(1 for g in found if explicit_length(g) == length) == 2


# -- the ascent rule -----------------------------------------------------------------

def ascents_by_definition(u):
    """Generators t with l(u t) > l(u), by multiplying out."""
    return tuple(t for t in Generator if explicit_length(mul(u, embed(t))) > explicit_length(u))


@pytest.mark.parametrize("is_reflection", [False, True])
def test_ascents_follow_the_sign_of_k(is_reflection):
    for k in range(-50, 51):
        u = GroupElement(is_reflection, k)
        assert _ascents(u) == ascents_by_definition(u), u


@given(st.builds(
    GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)
))
def test_ascents_follow_the_sign_of_k_up_to_the_bound(u):
    assert _ascents(u) == ascents_by_definition(u)


def test_the_closed_form_multiplies_only_for_its_answer(monkeypatch):
    # The ascents come from the normal form, so only gamma's final u * w multiplies.
    calls = []
    real = dcn.neighborhood.mul
    monkeypatch.setattr(dcn.neighborhood, "mul", lambda g, h: calls.append(g) or real(g, h))
    for u in (r(0), sr(0), sr(1), r(3), sr(-4)):
        for d in (Degree(0, 0), Degree(1, 1), Degree(2, 3), Degree(3, 3)):
            ad_set(u, d)
            ad_size(u, d)
            assert calls == []
            gamma = curve_neighborhood(u, d)
            assert len(calls) == len(gamma)
            calls.clear()


def test_the_closed_form_computes_no_length():
    assert not hasattr(dcn.neighborhood, "explicit_length")
    assert not hasattr(dcn.neighborhood, "embed")
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
                assert any(bruhat_le(z, w) for w in result.maximal)


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
