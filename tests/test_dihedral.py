"""Core group arithmetic: multiplication table, lengths, words, degrees, grammar."""

import re

import pytest
from hypothesis import assume, given
import hypothesis.strategies as st

from dcn import (
    COEFFICIENT_BOUND,
    CoefficientRangeError,
    Degree,
    Generator,
    GroupElement,
    IDENTITY,
    ParseError,
    bruhat_le,
    bruhat_lt,
    degrees_up_to,
    embed,
    explicit_length,
    format_degree,
    format_element,
    format_element_set,
    format_word,
    inverse,
    mul,
    parse_degree,
    parse_element,
    phi,
    r,
    reduced_word,
    sort_elements,
    sr,
)
from dcn.dihedral import parse_count
from reference import alternating_word, is_left_descent, word_product

S0, S1 = Generator.S0, Generator.S1

elements = st.builds(GroupElement, st.booleans(), st.integers(-10**6, 10**6))
# reduced words have O(|k|) letters, so word-building tests use a smaller range
word_scale_elements = st.builds(GroupElement, st.booleans(), st.integers(-2000, 2000))


# -- multiplication, identity, inverse ---------------------------------------

@pytest.mark.parametrize(
    "g,h,expected",
    [
        (r(0), sr(5), sr(5)),
        (sr(0), sr(1), r(1)),
        (sr(2), r(3), sr(5)),
        (r(2), r(3), r(5)),
        (r(2), sr(3), sr(1)),
        (sr(1), sr(0), r(-1)),
    ],
)
def test_mul_table(g, h, expected):
    # A plain tuple would compare equal too: the product must be an element.
    product = mul(g, h)
    assert (type(product), product, hash(product)) == (GroupElement, expected, hash(expected))
    assert g * h == expected


@pytest.mark.parametrize("g,expected", [(r(3), r(-3)), (sr(7), sr(7)), (r(0), r(0))])
def test_inverse(g, expected):
    assert inverse(g) == expected


@given(elements, elements, elements)
def test_mul_associative(g, h, w):
    assert mul(mul(g, h), w) == mul(g, mul(h, w))


@given(elements)
def test_identity_and_inverse(g):
    assert mul(IDENTITY, g) == g
    assert mul(g, IDENTITY) == g
    assert mul(g, inverse(g)) == IDENTITY
    assert mul(inverse(g), g) == IDENTITY


@pytest.mark.parametrize("i", [S0, S1])
def test_generators_are_involutions(i):
    assert mul(embed(i), embed(i)) == IDENTITY


# -- lengths and reduced words ------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [(r(-2), 4), (sr(3), 5), (sr(0), 1), (r(0), 0), (sr(1), 1), (sr(-1), 3)],
)
def test_explicit_length(g, expected):
    assert explicit_length(g) == expected


@pytest.mark.parametrize(
    "g,expected",
    [
        (sr(0), (S0,)),
        (sr(2), (S1, S0, S1)),
        (r(2), (S0, S1, S0, S1)),
        (r(0), ()),
        (r(-1), (S1, S0)),
    ],
)
def test_reduced_word_values(g, expected):
    assert reduced_word(g) == expected


@given(word_scale_elements)
def test_reduced_word_round_trip(g):
    word = reduced_word(g)
    assert len(word) == explicit_length(g)
    assert word_product(word) == g


@pytest.mark.parametrize(
    "word,expected",
    [((), r(0)), ((S0, S1), r(1)), ((S1, S0, S1), sr(2))],
)
def test_word_product(word, expected):
    assert word_product(word) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(0, ()), (1, (S1,)), (2, (S0, S1)), (3, (S1, S0, S1)), (4, (S0, S1, S0, S1))],
)
def test_alternating_word_ends_with_second(n, expected):
    assert alternating_word(S0, S1, n) == expected


def test_alternating_word_rejects_equal_generators():
    with pytest.raises(ValueError):
        alternating_word(S0, S0, 3)


@given(elements, st.sampled_from([S0, S1]))
def test_generator_step_changes_length_by_one(g, i):
    assert abs(explicit_length(mul(embed(i), g)) - explicit_length(g)) == 1


@given(elements, elements)
def test_length_subadditive_with_even_defect(g, h):
    defect = explicit_length(g) + explicit_length(h) - explicit_length(mul(g, h))
    assert defect >= 0
    assert defect % 2 == 0


# -- the letter-count map -----------------------------------------------------

@pytest.mark.parametrize(
    "g,expected",
    [(r(0), Degree(0, 0)), (sr(0), Degree(1, 0)), (sr(3), Degree(2, 3)), (r(-3), Degree(3, 3))],
)
def test_phi_values(g, expected):
    assert phi(g) == expected


@pytest.mark.parametrize("k", range(-60, 61))
def test_phi_matches_letter_counting(k):
    # independent oracle: count letters of the reduced word directly
    for g in (r(k), sr(k)):
        word = reduced_word(g)
        counted = Degree(sum(1 for i in word if i == S0), sum(1 for i in word if i == S1))
        assert phi(g) == counted


@given(elements)
def test_phi_components_sum_to_length(g):
    counts = phi(g)
    assert counts.a + counts.b == explicit_length(g)


@given(elements, elements)
def test_degree_add_parity(g, h):
    combined = phi(g) + phi(h)
    after = phi(mul(g, h))
    assert combined.a >= after.a and (combined.a - after.a) % 2 == 0
    assert combined.b >= after.b and (combined.b - after.b) % 2 == 0


# -- descents and Bruhat order -------------------------------------------------

@pytest.mark.parametrize(
    "i,g,expected",
    [(S0, sr(0), True), (S0, r(0), False), (S0, r(1), True), (S1, sr(0), False)],
)
def test_is_left_descent(i, g, expected):
    assert is_left_descent(i, g) is expected


def test_bruhat_examples():
    assert bruhat_lt(r(1), sr(2))
    assert not bruhat_lt(sr(0), sr(1))  # distinct equal-length elements are incomparable
    assert not bruhat_lt(sr(2), sr(2))
    assert bruhat_le(sr(2), sr(2))


@given(elements, elements, elements)
def test_bruhat_lt_is_strict_partial_order(u, v, w):
    assert not bruhat_lt(u, u)
    if bruhat_lt(u, v):
        assert not bruhat_lt(v, u)
    if bruhat_lt(u, v) and bruhat_lt(v, w):
        assert bruhat_lt(u, w)


# -- degrees -------------------------------------------------------------------

def test_degree_addition_and_identity():
    assert Degree(1, 2) + Degree(3, 0) == Degree(4, 2)
    assert Degree(5, 7) + Degree(0, 0) == Degree(5, 7)


def test_degree_partial_order():
    assert Degree(1, 2) <= Degree(2, 2)
    assert Degree(1, 2) < Degree(2, 2)
    assert Degree(2, 2) >= Degree(1, 2)
    assert not Degree(1, 2) <= Degree(2, 1)
    assert not Degree(2, 1) <= Degree(1, 2)
    assert Degree(3, 3) <= Degree(3, 3) and not Degree(3, 3) < Degree(3, 3)


def test_degree_rejects_negative_components():
    with pytest.raises(ValueError):
        Degree(-1, 0)


def test_degrees_up_to_grid():
    assert degrees_up_to(Degree(1, 1)) == [
        Degree(0, 0),
        Degree(0, 1),
        Degree(1, 0),
        Degree(1, 1),
    ]


# -- canonical ordering and printing -------------------------------------------

def test_canonical_sort_order():
    shuffled = [sr(1), r(0), r(-1), sr(0), r(1), sr(2), sr(-1)]
    assert sort_elements(shuffled) == [r(0), sr(0), sr(1), r(-1), r(1), sr(-1), sr(2)]


def test_format_element_set():
    assert format_element_set({r(2), r(-2)}) == "{r(-2), r(2)}"
    assert format_element_set({sr(0)}) == "{sr(0)}"


def test_format_word():
    assert format_word(reduced_word(sr(2))) == "s1 s0 s1"
    assert format_word(()) == "e"


@pytest.mark.parametrize("letter", [-1, 2])
def test_format_word_rejects_a_letter_that_is_not_a_generator(letter):
    # A tuple of names indexed by -1 would print it as s1.
    with pytest.raises(KeyError):
        format_word((Generator.S0, letter))


def test_format_degree():
    assert format_degree(Degree(2, 3)) == "2,3"


# -- grammar --------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("sr(-3)", sr(-3)),
        ("1", r(0)),
        ("s0", sr(0)),
        ("s1", sr(1)),
        ("r(12)", r(12)),
        (" sr ( -3 ) ", sr(-3)),
        ("r(0)", r(0)),
        ("r(0000000000000000000001)", r(1)),
        ("sr(-0002147483648)", sr(-(2**31))),
    ],
)
def test_parse_element(text, expected):
    assert parse_element(text) == expected


@pytest.mark.parametrize(
    "text,position",
    [
        ("sr(3", 4),
        ("x", 0),
        ("r(a)", 2),
        ("sr(3))", 5),
        ("r3)", 1),
        ("", 0),
        ("r(²)", 2),
        ("sr(-٣)", 4),
        ("r(1٣)", 3),
        ("r(1 2)", 3),
    ],
)
def test_parse_element_errors_carry_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_element(text)
    assert err.value.position == position


def test_parse_element_range():
    assert parse_element(f"r({2**31})") == r(2**31)
    with pytest.raises(CoefficientRangeError):
        parse_element(f"r({2**31 + 1})")
    with pytest.raises(CoefficientRangeError):
        parse_element(f"sr(-{2**31 + 1})")
    assert COEFFICIENT_BOUND == 2**31


@pytest.mark.parametrize("digits", ["1" + "0" * 10, "9" * 4_301, "9" * 100_000], ids=len)
def test_overlong_numbers_are_refused_by_width(digits):
    # int() refuses more than 4,300 digits with a plain ValueError; the width
    # check must answer first, with the range error.
    for parse, text in [
        (parse_element, f"r({digits})"),
        (parse_element, f"sr(-{digits})"),
        (parse_degree, f"{digits},0"),
        (parse_degree, f"(0,{digits})"),
    ]:
        with pytest.raises(CoefficientRangeError, match=f"of {len(digits)} digits"):
            parse(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2,3", Degree(2, 3)),
        ("(2,3)", Degree(2, 3)),
        (" ( 0 , 0 ) ", Degree(0, 0)),
        ("007,00000000000000000003", Degree(7, 3)),
    ],
)
def test_parse_degree(text, expected):
    assert parse_degree(text) == expected


@pytest.mark.parametrize(
    "text",
    ["-1,2", "2;3", "(2,3", "2,3)", "2,", ",3", "2,3,4", "²,1", "1,٣", "(1٣,2)", "1 0,2", "(1,2 3)"],
)
def test_parse_degree_errors(text):
    with pytest.raises(ParseError):
        parse_degree(text)


@pytest.mark.parametrize(
    "text,positive,expected",
    [("0", False, 0), ("007", True, 7), (" 12 ", False, 12), (f"{2**31}", True, 2**31)],
)
def test_parse_count(text, positive, expected):
    assert parse_count(text, positive) == expected


@pytest.mark.parametrize(
    "text,positive,position",
    [
        ("", False, 0),
        ("-1", False, 0),
        (" 00", True, 1),
        ("٢", False, 0),
        ("1 0", False, 1),
        ("2x", False, 1),
        ("+3", True, 0),
    ],
)
def test_parse_count_errors_carry_position(text, positive, position):
    with pytest.raises(ParseError) as err:
        parse_count(text, positive)
    assert err.value.position == position


def test_parse_count_range():
    with pytest.raises(CoefficientRangeError) as err:
        parse_count(f"{2**31 + 1}")
    assert str(err.value) == "count 2147483649 outside the supported range 0 <= n <= 2**31"
    with pytest.raises(CoefficientRangeError) as err:
        parse_count("9" * 5_000)
    assert str(err.value) == "count of 5000 digits outside the supported range 0 <= n <= 2**31"


@given(st.booleans(), st.integers(-1000, 1000))
def test_parse_format_round_trip(is_reflection, k):
    g = GroupElement(is_reflection, k)
    assert parse_element(format_element(g)) == g


# -- blanks: between tokens only ------------------------------------------------

BLANKS = " \t\xa0"
naturals = st.integers(0, COEFFICIENT_BOUND)
# (parser, printed text, value) for every printed form up to the coefficient bound.
printed = st.one_of(
    st.builds(GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)).map(
        lambda g: (parse_element, format_element(g), g)
    ),
    st.sampled_from([("1", r(0)), ("s0", sr(0)), ("s1", sr(1))]).map(
        lambda alias: (parse_element, *alias)
    ),
    st.builds(Degree, naturals, naturals).map(lambda d: (parse_degree, format_degree(d), d)),
    st.builds(Degree, naturals, naturals).map(lambda d: (parse_degree, f"({format_degree(d)})", d)),
    naturals.map(lambda n: (parse_count, str(n), n)),
)
TOKEN = re.compile(r"s[r01]|[0-9]+|.")


@given(printed, st.data())
def test_blanks_between_tokens_change_nothing(case, data):
    parse, text, value = case
    tokens = TOKEN.findall(text) + [""]
    blank_runs = st.text(BLANKS, max_size=2)
    gaps = data.draw(st.lists(blank_runs, min_size=len(tokens), max_size=len(tokens)))
    assert parse("".join(gap + token for gap, token in zip(gaps, tokens))) == value


@given(printed, st.sampled_from(BLANKS), st.data())
def test_a_blank_inside_a_number_is_refused_at_the_blank(case, blank, data):
    parse, text, _ = case
    cuts = [m.start() + i for m in re.finditer("[0-9]{2,}", text) for i in range(1, len(m[0]))]
    assume(cuts)
    cut = data.draw(st.sampled_from(cuts))
    with pytest.raises(ParseError, match="unexpected blank inside a number") as err:
        parse(text[:cut] + blank + text[cut:])
    assert err.value.position == cut


@given(
    st.builds(sr, st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)).map(format_element)
    | st.sampled_from(["s0", "s1"]),
    st.text(BLANKS, max_size=2),
    st.text(BLANKS, min_size=1, max_size=2),
)
def test_a_blank_inside_a_keyword_is_refused_at_its_first_letter(text, lead, blank):
    expected = re.escape("expected 'r(k)', 'sr(k)', '1', 's0' or 's1'")
    with pytest.raises(ParseError, match=expected) as err:
        parse_element(lead + text[0] + blank + text[1:])
    assert err.value.position == len(lead)


@pytest.mark.parametrize(
    "parse,text,message",
    [
        (parse_degree, "2147483649,x", "coefficient 2147483649 outside"),
        (parse_element, "r(12345678901", "coefficient of 11 digits outside"),
        (parse_count, "2147483649x", "count 2147483649 outside"),
    ],
)
def test_a_number_is_refused_where_it_is_read(parse, text, message):
    # Each text has a second fault after the number; the number is reported first.
    with pytest.raises(CoefficientRangeError, match=message):
        parse(text)
