"""The alternating-word formula against the definitional filter and the oracle.

``ad_set`` and ``curve_neighborhood`` compute Ad(u, d) and gamma(u, d) from
the alternating-word formula.  The reference here is the definition itself:
multiply out every alternating word up to the length the degree allows and
keep the elements v with l(u v) = l(u) + l(v) and phi(v) <= d.
"""

import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from dcn import (
    COEFFICIENT_BOUND,
    Degree,
    Generator,
    GroupElement,
    ad_set,
    canonical_key,
    curve_neighborhood,
    curve_neighborhood_oracle,
    degrees_up_to,
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
from reference import (
    alternating_word,
    gamma_by_hecke,
    halved_gap,
    hecke_product,
    hecke_tops,
    mirror,
    word_product,
    words_up_to_length,
)

S0, S1 = Generator.S0, Generator.S1
BOUND = COEFFICIENT_BOUND

wide_elements = st.builds(GroupElement, st.booleans(), st.integers(-BOUND, BOUND))
# A word has up to 2|k| + 1 letters, so words stay at |k| <= 1000, where they fit.
word_elements = st.builds(GroupElement, st.booleans(), st.integers(-1000, 1000))
reduced_words = word_elements.map(reduced_word)


def small_degrees(top):
    return st.builds(Degree, st.integers(0, top), st.integers(0, top))


# -- the definitional reference -----------------------------------------------------

def ad_by_filter(u, d):
    length_u = explicit_length(u)
    return frozenset(
        v
        for v in words_up_to_length(d.a + d.b)
        if phi(v) <= d and explicit_length(mul(u, v)) == length_u + explicit_length(v)
    )


def gamma_by_filter(u, d):
    return frozenset(mul(u, w) for w in maximal_elements(ad_by_filter(u, d)))


# -- alternating words and the enumeration ---------------------------------------------

@pytest.mark.parametrize("n", range(31))
def test_alternating_element_is_the_word_product(n):
    # alternating_word(first, second, n) ends with second, so it starts with
    # second for odd n and with first for even n
    for first, second in ((S0, S1), (S1, S0)):
        start = second if n % 2 else first
        assert alternating_element(start, n) == word_product(alternating_word(first, second, n))


def test_alternating_element_values():
    assert [alternating_element(S0, n) for n in range(5)] == [r(0), sr(0), r(1), sr(-1), r(2)]
    assert [alternating_element(S1, n) for n in range(5)] == [r(0), sr(1), r(-1), sr(2), r(-2)]
    with pytest.raises(ValueError):
        alternating_element(S0, -1)


@pytest.mark.parametrize("n", range(21))
def test_enumerate_up_to_length_matches_word_products(n):
    # The same elements, and already in printed order.
    assert enumerate_up_to_length(n) == sort_elements(words_up_to_length(n))


def test_canonical_key_is_length_then_k():
    # Each length holds one type, so the pair fixes the printed order.
    assert [canonical_key(g) for g in (r(0), sr(0), sr(1), r(-2), r(2))] == [
        (0, 0), (1, 0), (1, 1), (4, -2), (4, 2)
    ]


# -- the formula against the filter --------------------------------------------------

def test_formula_matches_filter_exhaustively():
    start = time.perf_counter()
    cases = 0
    for u in sort_elements(words_up_to_length(10)):
        for d in degrees_up_to(Degree(10, 10)):
            assert ad_set(u, d) == ad_by_filter(u, d), (u, d)
            assert curve_neighborhood(u, d) == gamma_by_filter(u, d), (u, d)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 21 * 121
    assert elapsed < 5, f"exhaustive comparison took {elapsed:.2f}s, budget 5s"


@given(wide_elements, small_degrees(10))
def test_ad_set_matches_filter_far_from_identity(u, d):
    assert ad_set(u, d) == ad_by_filter(u, d)


@given(wide_elements, small_degrees(4))
def test_formula_matches_oracle(u, d):
    # the oracle's cost depends on d only, so wide coefficients stay cheap
    assert curve_neighborhood(u, d) == curve_neighborhood_oracle(u, d)


# -- a third route: the Hecke product (Buch-Mihalcea) ----------------------------------

def test_hecke_product_examples():
    assert hecke_product((), (S1, S0)) == (S1, S0)
    assert hecke_product((S0,), (S0,)) == (S0,)
    assert hecke_product((S0, S1), (S1, S0, S1)) == (S0, S1, S0, S1)
    assert hecke_product((S0, S1), (S0, S1)) == (S0, S1, S0, S1)


def test_hecke_tops_examples():
    assert hecke_tops(0, 0) == {()}
    # (1, 0) is the one maximal root under (3, 0), and s0 absorbs s0.
    assert hecke_tops(3, 0) == {(S0,)}
    assert hecke_tops(1, 3) == {(S1, S0, S1)}
    assert hecke_tops(2, 2) == {(S0, S1, S0, S1), (S1, S0, S1, S0)}


def test_hecke_route_matches_the_closed_form_exhaustively():
    cases = 0
    for u in enumerate_up_to_length(14):
        for d in degrees_up_to(Degree(14, 14)):
            closed = {reduced_word(g) for g in curve_neighborhood(u, d)}
            assert gamma_by_hecke(u, d) == closed, (u, d)
            cases += 1
    assert cases == 29 * 225


@given(word_elements, small_degrees(60))
def test_hecke_route_matches_the_closed_form_far_from_identity(u, d):
    assert gamma_by_hecke(u, d) == {reduced_word(g) for g in curve_neighborhood(u, d)}


@given(reduced_words, reduced_words, reduced_words)
def test_hecke_product_is_associative(x, y, z):
    assert hecke_product(hecke_product(x, y), z) == hecke_product(x, hecke_product(y, z))


@given(reduced_words, reduced_words)
def test_hecke_product_is_at_least_as_long_as_each_factor(x, y):
    assert len(hecke_product(x, y)) >= max(len(x), len(y))


# -- the full coefficient and degree range ---------------------------------------------

def test_gamma_at_the_degree_bound():
    top = Degree(BOUND, BOUND)
    assert curve_neighborhood(sr(0), top) == frozenset({sr(-BOUND)})
    assert curve_neighborhood(r(0), top) == frozenset({r(BOUND), r(-BOUND)})


def test_ad_set_sizes():
    # N_s0 = min(2*50, 2*70 + 1) = 100 and N_s1 = min(2*70, 2*50 + 1) = 101;
    # u = 1 admits both starting letters, which share only the identity
    d = Degree(50, 70)
    assert len(ad_set(r(0), d)) == 100 + 101 + 1
    # sr(2**31) ends in s1, so only s0 lengthens it
    assert len(ad_set(sr(BOUND), d)) == 100 + 1


@given(wide_elements, st.integers(0, BOUND), st.integers(0, BOUND))
def test_relabeling_commutes_with_gamma(u, a, b):
    gamma = curve_neighborhood(u, Degree(a, b))
    assert curve_neighborhood(mirror(u), Degree(b, a)) == frozenset(mirror(v) for v in gamma)
    assert 1 <= len(gamma) <= 2


# -- the shared parity-gap check -----------------------------------------------------

def test_halved_gap():
    assert halved_gap(Degree(5, 4), Degree(1, 4), "case") == (2, 0)
    for lower in (Degree(6, 4), Degree(2, 4), Degree(1, 3)):
        with pytest.raises(ValueError, match="case"):
            halved_gap(Degree(5, 4), lower, "case")
