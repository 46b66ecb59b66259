"""Group arithmetic against the Coxeter presentation of D_inf.

The model in ``reference`` treats an element as a freely reduced word over
{s0, s1}: the product concatenates and cancels, the length is the word length,
Bruhat order is the subword order and the reflections are the conjugates
w s_i w^-1.  The package computes closed forms on normal forms instead, and
``reduced_word`` is the one bridge between the two.
"""

from dcn import (
    Degree,
    Generator,
    enumerate_up_to_length,
    explicit_length,
    graph_slice,
    inverse,
    maximal_elements,
    mul,
    phi,
    reachable_set,
    reduced_word,
    root_of_reflection,
    root_reflection,
    roots_bounded,
)
from reference import (
    degrees_up_to,
    free_reduce,
    is_subword,
    reduced_words_up_to,
    word_edges,
    word_inverse,
    word_mul,
    word_reflections,
)

S0, S1 = Generator.S0, Generator.S1

# 19 elements, so 361 pairs; the reflections reach length 2 * MAX_LENGTH + 1.
MAX_LENGTH = 9
WORDS = {g: reduced_word(g) for g in enumerate_up_to_length(MAX_LENGTH)}
REFLECTION_LENGTH = 2 * MAX_LENGTH + 1
ELEMENT_OF = {reduced_word(g): g for g in enumerate_up_to_length(REFLECTION_LENGTH)}


def _counts(word):
    return (word.count(S0), word.count(S1))


def test_reduced_word_is_a_bijection_onto_the_reduced_words():
    assert all(free_reduce(w) == w for w in WORDS.values())
    assert sorted(WORDS.values()) == sorted(reduced_words_up_to(MAX_LENGTH))


def test_length_phi_and_inverse_match_the_words():
    for g, w in WORDS.items():
        assert explicit_length(g) == len(w), g
        assert phi(g) == _counts(w), g
        assert reduced_word(inverse(g)) == word_inverse(w), g


def test_mul_is_concatenate_and_cancel():
    for g, v in WORDS.items():
        for h, w in WORDS.items():
            assert reduced_word(mul(g, h)) == word_mul(v, w), (g, h)


def test_bruhat_order_is_the_subword_order():
    # The comparison maximal_elements and canonical_key make.
    for g, v in WORDS.items():
        for h, w in WORDS.items():
            shorter = explicit_length(g) < explicit_length(h)
            assert shorter == (v != w and is_subword(v, w)), (g, h)


def test_maximal_elements_are_the_subword_maximal_members():
    for u in enumerate_up_to_length(4):
        for d in degrees_up_to(Degree(3, 3)):
            words = {v: reduced_word(v) for v in reachable_set(u, d)}
            expected = {
                v for v, w in words.items()
                if not any(x != w and is_subword(w, x) for x in words.values())
            }
            assert maximal_elements(words) == expected, (u, d)


def test_reflections_are_the_conjugates_of_the_generators():
    reflections = word_reflections(REFLECTION_LENGTH)
    # Every conjugate is an odd palindrome, and every odd palindrome is one.
    assert reflections == {w for w in ELEMENT_OF if len(w) % 2 and w == w[::-1]}
    assert reflections == {reduced_word(g) for g in ELEMENT_OF.values() if g.is_reflection}
    bound = MAX_LENGTH + 1
    roots = roots_bounded(Degree(bound, bound))
    assert {reduced_word(root_reflection(alpha)) for alpha in roots} == reflections
    for t in reflections:
        alpha = root_of_reflection(ELEMENT_OF[t])
        assert alpha == _counts(t), t
        assert reduced_word(root_reflection(alpha)) == t, t


def test_graph_slice_edges_are_the_reflection_edges_that_lengthen():
    vertices, edges = graph_slice(MAX_LENGTH)
    assert sorted(map(reduced_word, vertices)) == sorted(reduced_words_up_to(MAX_LENGTH))
    expected = {(u, _counts(t), v) for u, t, v in word_edges(MAX_LENGTH)}
    found = [(reduced_word(u), tuple(alpha), reduced_word(v)) for u, alpha, v in edges]
    assert len(found) == len(set(found))
    assert set(found) == expected
