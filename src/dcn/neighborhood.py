"""Curve neighborhoods through the alternating-word formula.

The degree-d curve neighborhood of u collects the Bruhat-maximal endpoints
of increasing chains from u; it needs no chains.  Reduced words alternate,
so l(u v) = l(u) + l(v) exactly when v = 1 or v starts with a generator t
that lengthens u (both generators for u = 1, one otherwise).  From t, the
longest alternating word with letter counts <= d has length
N_t = min(2 d_t, 2 d_s + 1), s the other letter.  So Ad(u, d) is the
alternating words of length 0..N_t from each allowed t, and gamma(u, d) is u
times the longest of those one or two words.  ``curve_neighborhood`` costs
O(1) for every u and d, as does ``ad_size``; ``ad_set`` costs time proportional
to its output.
"""

from __future__ import annotations

from typing import Iterable

from .dihedral import (
    Degree,
    Generator,
    GroupElement,
    alternating_element,
    embed,
    explicit_length,
    halved_gap,
    mul,
    phi,
)

__all__ = ["ad_set", "curve_neighborhood", "maximal_elements", "parity_witness"]


def _ascents(u: GroupElement) -> list[Generator]:
    """Generators t with l(u t) > l(u): both for the identity, one otherwise."""
    length_u = explicit_length(u)
    return [t for t in Generator if explicit_length(mul(u, embed(t))) > length_u]


def _longest(t: Generator, d: Degree) -> int:
    """N_t, the longest alternating word from t whose letter counts fit under d."""
    own, other = (d.a, d.b) if t == Generator.S0 else (d.b, d.a)
    return min(2 * own, 2 * other + 1)


def ad_set(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """Elements v with l(u v) = l(u) + l(v) and phi(v) <= d; never empty."""
    return frozenset(
        alternating_element(t, n) for t in _ascents(u) for n in range(_longest(t, d) + 1)
    )


def ad_size(u: GroupElement, d: Degree) -> int:
    """len(ad_set(u, d)) without building it: the identity plus N_t words per ascent t."""
    return 1 + sum(_longest(t, d) for t in _ascents(u))


def maximal_elements(elements: Iterable[GroupElement]) -> frozenset[GroupElement]:
    """Members no other member exceeds in length, i.e. the Bruhat-maximal ones."""
    pool = set(elements)
    if not pool:
        raise ValueError("maximal_elements needs a non-empty set")
    top = max(explicit_length(v) for v in pool)
    return frozenset(v for v in pool if explicit_length(v) == top)


def curve_neighborhood(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """The degree-d curve neighborhood of u, by the formula, without building Ad."""
    reach = {t: _longest(t, d) for t in _ascents(u)}
    top = max(reach.values())
    return frozenset(mul(u, alternating_element(t, n)) for t, n in reach.items() if n == top)


def parity_witness(g: GroupElement, h: GroupElement) -> tuple[int, int]:
    """The unique (r, s) with phi(g) + phi(h) = phi(g h) + (2r, 2s); see halved_gap."""
    return halved_gap(phi(g) + phi(h), phi(mul(g, h)), f"{g!r} * {h!r}")

