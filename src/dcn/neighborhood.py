"""Curve neighborhoods through the alternating-word formula.

The degree-d curve neighborhood of u collects the Bruhat-maximal endpoints
of increasing chains from u; it needs no chains.  Reduced words alternate,
so l(u v) = l(u) + l(v) exactly when v = 1 or v starts with a generator t
that lengthens u, and the sign of k names that t.  By the product table

    r(k)  * s0 = sr(-k)        r(k)  * s1 = sr(1 - k)
    sr(k) * s0 = r(-k)         sr(k) * s1 = r(1 - k)

for k > 0, s0 takes r(k) from length 2k to 2k + 1 and sr(k) from 2k - 1 to
2k, while s1 shortens both.  For k <= 0, s1 takes r(k) from 2|k| to 2|k| + 1
and sr(k) from 2|k| + 1 to 2|k| + 2, while s0 shortens both unless u is the
identity r(0).  So t is s0 when k > 0, s1 when k <= 0, and both for u = 1.
From t, the longest alternating word with letter counts <= d has
length N_t = min(2 d_t, 2 d_s + 1), s the other letter.  So Ad(u, d) is the
alternating words of length 0..N_t from each allowed t, and gamma(u, d) is u
times the longest of those one or two words.  No length is computed here.

For d = (a, b), N_s0 = min(2a, 2b + 1) is 2a when a <= b, and that word
(s0 s1)^a is r(a); it is 2b + 1 when a > b, and (s0 s1)^b s0 is sr(-b).
Likewise N_s1 = min(2b, 2a + 1) is 2b when b <= a, giving (s1 s0)^b = r(-b),
and 2a + 1 when b > a, giving (s1 s0)^a s1 = sr(a + 1).  Multiplying by u
through the product table, where a rotation on the right keeps u's type and a
reflection switches it, gives gamma(u, d) as one table lookup:

    u               condition    gamma(u, d)
    k > 0           a <= b       u r(a)      = same type as u, k + a
                    a > b        u sr(-b)    = other type,     -k - b
    k <= 0, u != 1  b <= a       u r(-b)     = same type as u, k - b
                    b > a        u sr(a + 1) = other type,     a + 1 - k
    u = 1           a = b        {r(a), r(-a)}
                    a < b        {sr(a + 1)}    (N_s1 = 2a + 1 > N_s0 = 2a)
                    a > b        {sr(-b)}       (N_s0 = 2b + 1 > N_s1 = 2b)

``curve_neighborhood`` reads its one or two elements off this table and
builds nothing else; ``ad_size`` costs O(1) too, and ``ad_set`` costs time
proportional to its output.
"""

from .dihedral import Degree, Generator, GroupElement, _element, alternating_element

__all__ = ["ad_set", "curve_neighborhood"]


def _ascents(u: GroupElement) -> tuple[Generator, ...]:
    """Generators t with l(u t) > l(u), by the sign of k; see the module docstring."""
    if u.k > 0:
        return (Generator.S0,)
    return (Generator.S1,) if u.k or u.is_reflection else (Generator.S0, Generator.S1)


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


def curve_neighborhood(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """The degree-d curve neighborhood of u, read off the table in the module docstring."""
    # One read per field: a multiple assignment would build and unpack a tuple.
    reflection = u.is_reflection
    k = u.k
    a = d.a
    b = d.b
    if k > 0:
        if a <= b:
            return frozenset({_element((reflection, k + a))})
        return frozenset({_element((not reflection, -k - b))})
    if k or reflection:
        if b <= a:
            return frozenset({_element((reflection, k - b))})
        return frozenset({_element((not reflection, a + 1 - k))})
    if a == b:  # at d = (0, 0) both are r(0)
        return frozenset({_element((False, a)), _element((False, -a))})
    return frozenset({_element((True, a + 1 if a < b else -b))})
