"""Test-only references, built from the definitions with public ``dcn`` names only.

The package does not use these; tests compare its faster routes against them,
and check the parity lemma on its answers with the two witnesses.
``successors`` in particular scans ``roots_bounded`` and multiplies out each
edge, so it shares no code with the chain walk it checks, and
``graph_slice_by_roots`` takes its vertices from word products, not from the
``enumerate_up_to_length`` that ``graph_slice`` uses.  ``gamma_by_hecke`` is a
third route to the neighborhood, through the Hecke product on words, and
``parse_chain_line`` reads a printed chain back.
"""

from functools import lru_cache
from typing import Iterable, NamedTuple

from dcn import (
    IDENTITY,
    Chain,
    ChainStep,
    Degree,
    Generator,
    GroupElement,
    Root,
    Word,
    ad_set,
    enumerate_up_to_length,
    explicit_length,
    format_element,
    inverse,
    maximal_elements,
    mul,
    parse_degree,
    parse_element,
    phi,
    r,
    reachable_set,
    reduced_word,
    root_reflection,
    roots_bounded,
    sort_elements,
    sr,
)


# -- degrees --------------------------------------------------------------------

def degrees_up_to(limit: Degree) -> list[Degree]:
    """All degrees d <= limit, ordered lexicographically by (a, b)."""
    return [Degree(a, b) for a in range(limit.a + 1) for b in range(limit.b + 1)]


# -- words and descents ---------------------------------------------------------

def word_product(word: Iterable[Generator]) -> GroupElement:
    """Left-to-right product of a word, starting from the identity."""
    out = IDENTITY
    for letter in word:
        out = mul(out, sr(int(letter)))
    return out


def alternating_word(first: Generator, second: Generator, n: int) -> Word:
    """The length-n word alternating between two generators, ending with ``second``."""
    if first == second:
        raise ValueError("alternating_word needs two distinct generators")
    if n < 0:
        raise ValueError("word length must be non-negative")
    return tuple(second if (n - 1 - i) % 2 == 0 else first for i in range(n))


@lru_cache(maxsize=None)
def words_up_to_length(n: int) -> frozenset[GroupElement]:
    """Elements of length <= n, as products of both alternating words of each length."""
    return frozenset(
        word_product(alternating_word(first, second, k))
        for k in range(n + 1)
        for first, second in ((Generator.S0, Generator.S1), (Generator.S1, Generator.S0))
    )


def ascents(u: GroupElement) -> tuple[Generator, ...]:
    """Generators t with l(u t) > l(u), by multiplying out."""
    return tuple(t for t in Generator if explicit_length(mul(u, sr(int(t)))) > explicit_length(u))


def is_left_descent(i: Generator, g: GroupElement) -> bool:
    """Whether left-multiplying by generator i shortens g."""
    return explicit_length(mul(sr(int(i)), g)) < explicit_length(g)


def mirror(g: GroupElement) -> GroupElement:
    """The automorphism swapping s0 and s1: r(k) -> r(-k), sr(k) -> sr(1 - k)."""
    return sr(1 - g.k) if g.is_reflection else r(-g.k)


# -- the Coxeter presentation ----------------------------------------------------
#
# An element is a word over {s0, s1}, freely reduced by s_i s_i = 1: the only
# relation, since m(s0, s1) = inf.  Nothing here calls the package's arithmetic.

def free_reduce(word: Iterable[Generator]) -> Word:
    """Cancel each adjacent pair of equal letters until none is left."""
    out: list[Generator] = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_mul(v: Word, w: Word) -> Word:
    """Product: concatenate and cancel."""
    return free_reduce(v + w)


def word_inverse(w: Word) -> Word:
    """Inverse: each letter is an involution, so read the word backwards."""
    return w[::-1]


def is_subword(v: Word, w: Word) -> bool:
    """Whether v is w with some letters deleted: the Bruhat order's subword property."""
    letters = iter(w)
    return all(letter in letters for letter in v)


def reduced_words_up_to(n: int) -> list[Word]:
    """Every reduced word of length at most n: the empty word and each alternating word."""
    return [()] + [
        tuple(Generator((first + i) % 2) for i in range(length))
        for first in Generator
        for length in range(1, n + 1)
    ]


def word_reflections(max_length: int) -> set[Word]:
    """The conjugates w s_i w^-1 of length at most max_length."""
    out = set()
    for w in reduced_words_up_to(max_length):
        for i in Generator:
            t = word_mul(word_mul(w, (i,)), word_inverse(w))
            if len(t) <= max_length:
                out.add(t)
    return out


def word_edges(max_length: int) -> set[tuple[Word, Word, Word]]:
    """Edges u -> u t, with t a reflection and l(u) < l(u t) <= max_length, as (u, t, u t)."""
    words = reduced_words_up_to(max_length)
    reflections = word_reflections(2 * max_length)
    return {
        (u, t, v)
        for u in words
        for t in reflections
        if len(u) < len(v := word_mul(u, t)) <= max_length
    }


# -- edges and chains -----------------------------------------------------------

def is_edge(u: GroupElement, v: GroupElement, alpha: Root) -> bool:
    """Whether u -> v is the moment-graph edge labeled by alpha."""
    return v == mul(u, root_reflection(alpha))


def successors(u: GroupElement, remaining: Degree) -> list[tuple[Root, GroupElement]]:
    """Length-increasing steps from u whose root fits ``remaining``, in root order."""
    out = []
    for alpha in roots_bounded(remaining):
        v = mul(u, root_reflection(alpha))
        if explicit_length(v) > explicit_length(u):
            out.append((alpha, v))
    return out


def graph_slice_by_roots(
    max_length: int,
) -> tuple[list[GroupElement], list[tuple[GroupElement, Root, GroupElement]]]:
    """The moment-graph slice on lengths <= max_length: from each vertex in printed
    order, every root of the (n, n) table in its order, multiplied out, kept when the
    edge lengthens and stays in the slice.  The vertices are word products, sorted."""
    vertices = sort_elements(words_up_to_length(max_length))
    bound = max(max_length, 0)
    edges = []
    for u in vertices:
        for alpha in roots_bounded(Degree(bound, bound)):
            v = mul(u, root_reflection(alpha))
            if explicit_length(u) < explicit_length(v) <= max_length:
                edges.append((u, alpha, v))
    return vertices, edges


def reachable_by_letter_counts(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """u and each u*x with phi(x) <= d that is longer than u.

    A reduced word has phi's components summing to its length, so every such x
    has length at most d.a + d.b.
    """
    length_u = explicit_length(u)
    ends = (mul(u, x) for x in enumerate_up_to_length(d.a + d.b) if phi(x) <= d)
    return frozenset({u}.union(v for v in ends if explicit_length(v) > length_u))


def maxima_by_rescan(
    fronts: dict[GroupElement, list[Degree]], d: Degree
) -> frozenset[GroupElement]:
    """The maxima within d of a front map, scanning every front anew: the vertices
    with some front degree at most d, then the longest of them."""
    return maximal_elements(v for v, front in fronts.items() if any(e <= d for e in front))


def has_increasing_chain(u: GroupElement, v: GroupElement) -> bool:
    """Whether some increasing chain of any degree connects u to v.

    Budget (l(u)+l(v), l(u)+l(v)) suffices: a connecting chain, when one
    exists, can always be routed directly or through a length-decreasing
    generator neighbor of v, and such a chain fits this budget.
    """
    budget = explicit_length(u) + explicit_length(v)
    return v in reachable_set(u, Degree(budget, budget))


def format_chain(chain: Chain) -> str:
    parts = [format_element(chain.start)]
    for step in chain.steps:
        parts.append(f"-[{step.root.a},{step.root.b}]->")
        parts.append(format_element(step.target))
    total = chain.degree()
    return " ".join(parts) + f"  degree {total.a},{total.b}"


def parse_chain_line(line: str) -> tuple[Chain, Degree]:
    """A printed chain, ``sr(0) -[2,1]-> r(-1)  degree 2,1``, as a validated ``Chain``
    and the degree its line prints."""
    path, degree = line.split("  degree ")
    start, *hops = path.split(" -[")
    steps = []
    for hop in hops:
        root, target = hop.split("]-> ")
        a, b = parse_degree(root)
        steps.append(ChainStep(Root(a, b), parse_element(target)))
    return Chain(parse_element(start), tuple(steps)), parse_degree(degree)


# -- parity witnesses ------------------------------------------------------------

def halved_gap(upper: Degree, lower: Degree, context: str) -> tuple[int, int]:
    """The (r, s) with upper = lower + (2r, 2s); raises ValueError otherwise."""
    gap_a, gap_b = upper.a - lower.a, upper.b - lower.b
    if gap_a < 0 or gap_b < 0 or gap_a % 2 or gap_b % 2:
        raise ValueError(f"letter-count gap ({gap_a},{gap_b}) for {context}")
    return (gap_a // 2, gap_b // 2)


def parity_witness(g: GroupElement, h: GroupElement) -> tuple[int, int]:
    """The unique (r, s) with phi(g) + phi(h) = phi(g h) + (2r, 2s); see halved_gap."""
    return halved_gap(phi(g) + phi(h), phi(mul(g, h)), f"{g!r} * {h!r}")


def chain_parity_witness(chain: Chain) -> tuple[int, int]:
    """Halved componentwise gap between the chain degree and phi(u^-1 v); see halved_gap."""
    lower = phi(mul(inverse(chain.start), chain.end))
    return halved_gap(chain.degree(), lower, f"chain {chain.start!r} to {chain.end!r}")


# -- the Hecke product -----------------------------------------------------------
#
# Buch and Mihalcea, "Curve neighborhoods of Schubert varieties" (J. Differential
# Geom., 2015): the degree-d curve neighborhood of u is hecke(u, z_d), their Hecke
# product, where z_0 = 1 and z_d = hecke(s_alpha, z_(d - alpha)) for a maximal root
# alpha <= d.  Under (a, a) both (a - 1, a) and (a, a - 1) are maximal, so here z_d is
# a set, and the neighborhood is the longest of the products hecke(u, z).  Everything is a reduced word, built
# without the package's arithmetic; ``reduced_word`` is the only bridge to it.

def hecke_product(x: Word, y: Iterable[Generator]) -> Word:
    """The Hecke product of a reduced word x and y: y's letters are folded in one at a
    time, and each lengthens the word unless the word already ends in it."""
    out = list(x)
    for letter in y:
        if not out or out[-1] != letter:
            out.append(letter)
    return tuple(out)


def root_word(a: int, b: int) -> Word:
    """s_alpha for the root alpha = (a, b): the alternating word with a letters s0 and
    b letters s1, which starts and ends with the more frequent letter."""
    fewer, more = (Generator.S1, Generator.S0) if a > b else (Generator.S0, Generator.S1)
    return alternating_word(fewer, more, a + b)


def maximal_roots(a: int, b: int) -> list[tuple[int, int]]:
    """The maximal roots under (a, b): two when a = b > 0, none at (0, 0)."""
    if a == b:
        return [(a - 1, a), (a, a - 1)] if a else []
    return [(a, a + 1)] if a < b else [(b + 1, b)]


def hecke_tops(a: int, b: int) -> frozenset[Word]:
    """z_(a, b): the empty word at (0, 0), else hecke(s_alpha, z_(d - alpha)) for each
    maximal root alpha under d = (a, b)."""
    roots = maximal_roots(a, b)
    if not roots:
        return frozenset({()})
    return frozenset(
        hecke_product(root_word(m, n), z) for m, n in roots for z in hecke_tops(a - m, b - n)
    )


def gamma_by_hecke(u: GroupElement, d: Degree) -> frozenset[Word]:
    """The reduced words of gamma(u, d): the longest hecke(reduced_word(u), z), z in z_d."""
    ends = {hecke_product(reduced_word(u), z) for z in hecke_tops(d.a, d.b)}
    top = max(map(len, ends))
    return frozenset(w for w in ends if len(w) == top)


# -- neighborhoods --------------------------------------------------------------

class NeighborhoodResult(NamedTuple):
    """Snapshot of one curve-neighborhood computation."""

    u: GroupElement
    d: Degree
    ad: frozenset[GroupElement]
    maximal: frozenset[GroupElement]
    gamma: frozenset[GroupElement]


def power(g: GroupElement, m: int) -> GroupElement:
    """g**m for m >= 0, by repeated squaring."""
    out = IDENTITY
    while m:
        if m & 1:
            out = mul(out, g)
        g = mul(g, g)
        m >>= 1
    return out


def gamma_by_longest_word(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """u times the longest alternating word from each ascent t of u, the longer if they differ.

    From t, with s the other letter, the longest word whose letter counts fit
    under d has length N_t = min(2 d_t, 2 d_s + 1); it is (t s)^(N_t // 2),
    followed by t when N_t is odd.
    """
    counts = {Generator.S0: d.a, Generator.S1: d.b}
    tops = {}
    for t in ascents(u):
        s = Generator(1 - t)
        n = min(2 * counts[t], 2 * counts[s] + 1)
        word = power(mul(sr(int(t)), sr(int(s))), n // 2)
        tops[mul(word, sr(int(t))) if n % 2 else word] = n
    top = max(tops.values())
    return frozenset(mul(u, w) for w, n in tops.items() if n == top)


def neighborhood_result(u: GroupElement, d: Degree) -> NeighborhoodResult:
    ad = ad_set(u, d)
    maximal = maximal_elements(ad)
    return NeighborhoodResult(u, d, ad, maximal, frozenset(mul(u, w) for w in maximal))
