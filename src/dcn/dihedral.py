"""Exact arithmetic in the infinite dihedral group.

Every group element has a unique normal form: a rotation ``r(k)`` of even
Coxeter length 2|k|, or a reflection ``sr(k)`` of odd length (2k - 1 when
k > 0, otherwise 2|k| + 1), with k any integer.  Products follow the table

    r(i)  * r(j)  = r(i + j)        r(i)  * sr(j) = sr(j - i)
    sr(i) * r(j)  = sr(i + j)       sr(i) * sr(j) = r(j - i)

so r(0) is the identity and every reflection is an involution.  The two
Coxeter generators are embedded as s0 = sr(0) and s1 = sr(1).

This module also houses degrees (pairs of letter counts ordered
componentwise), reduced words, the letter-count map ``phi``, the Bruhat
order (which for this group is plain length comparison), and the printed
grammar for elements, degrees and counts.  Every value type of the package is
an immutable, hashable NamedTuple on one base, ``_Value``: ``+`` and ``*``
never concatenate or repeat it, and ``_make`` and ``_replace`` validate.  Each
also compares equal to a plain tuple with the same fields.  Degrees and roots
share ``_Counts``, so they are ordered componentwise, with each other too, and
refuse to be ordered against a plain tuple or an element, either way round;
an element keeps tuple order against anything else.
"""

from enum import IntEnum
from functools import partial
from typing import Iterable, NamedTuple, NoReturn

__all__ = [
    "COEFFICIENT_BOUND", "CoefficientRangeError", "Degree", "Generator", "GroupElement", "IDENTITY",
    "ParseError", "Word", "ZERO_DEGREE", "bruhat_le", "bruhat_lt",
    "canonical_key", "degrees_up_to", "embed", "enumerate_up_to_length", "explicit_length",
    "format_degree", "format_element", "format_element_set", "format_word", "inverse", "mul",
    "parse_degree", "parse_element", "phi", "r", "reduced_word", "sort_elements", "sr",
]

COEFFICIENT_BOUND = 2**31
_COEFFICIENT_RANGE = "|k| <= 2**31"
_COUNT_RANGE = "0 <= n <= 2**31"


class ParseError(ValueError):
    """Malformed element, degree or count text; ``position`` indexes the bad character."""

    def __init__(self, message: str, text: str, position: int) -> None:
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class CoefficientRangeError(ValueError):
    """A number outside its supported range; ``what`` names it, ``supported`` states the range."""

    def __init__(self, what: str, supported: str = _COEFFICIENT_RANGE) -> None:
        super().__init__(f"{what} outside the supported range {supported}")


class Generator(IntEnum):
    """The two involutive generators; S0 embeds as sr(0), S1 as sr(1)."""

    S0 = 0
    S1 = 1


Word = tuple[Generator, ...]


class _Value(tuple):
    """Base of every value type: a NamedTuple that validates however it is built.

    ``+`` and ``*`` return NotImplemented, so Python raises TypeError instead of
    concatenating or repeating the tuple, unless a subclass defines them.  The
    NamedTuple ``_make``, and so ``_replace``, builds the tuple without calling
    ``__new__``; this ``_make`` goes through it.
    """

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class GroupElement(_Value, NamedTuple("GroupElement", [("is_reflection", bool), ("k", int)])):
    """Normal form of a group element: rotation r(k) or reflection sr(k).

    ``g * h`` is the group product; ``<`` is tuple order, not Bruhat order
    (use ``bruhat_lt`` or ``sort_elements``).  Ordering an element against a
    degree or a root raises TypeError, as ``_Counts`` does the other way round.
    """

    __slots__ = ()

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return mul(self, other)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Counts):
            _refuse_order(self, other)
        return tuple.__lt__(self, other)

    def __le__(self, other: object) -> bool:
        if isinstance(other, _Counts):
            _refuse_order(self, other)
        return tuple.__le__(self, other)

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _Counts):
            _refuse_order(self, other)
        return tuple.__gt__(self, other)

    def __ge__(self, other: object) -> bool:
        if isinstance(other, _Counts):
            _refuse_order(self, other)
        return tuple.__ge__(self, other)

    def __repr__(self) -> str:
        return format_element(self)


class _Counts(_Value, NamedTuple("_Counts", [("a", int), ("b", int)])):
    """Pair of letter counts, ordered componentwise against any other pair of counts.

    The order is partial: (1, 2) and (2, 1) are incomparable.  Ordering counts
    against a plain tuple or a ``GroupElement``, either way round, raises
    TypeError instead of falling back to tuple order; equality is still tuple
    equality.
    """

    __slots__ = ()

    def __le__(self, other: object) -> bool:
        if not isinstance(other, _Counts):
            _refuse_order(self, other)
        return self.a <= other.a and self.b <= other.b

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, _Counts):
            _refuse_order(self, other)
        return self != other and self.a <= other.a and self.b <= other.b

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, _Counts):
            _refuse_order(self, other)
        return other <= self

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, _Counts):
            _refuse_order(self, other)
        return other < self


def _refuse_order(left: object, right: object) -> NoReturn:
    # Returning NotImplemented would let tuple's lexicographic order answer.
    raise TypeError(f"cannot order {type(left).__name__!r} and {type(right).__name__!r}")


class Degree(_Counts):
    """Pair of non-negative letter counts; addition is componentwise."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Degree":
        if a < 0 or b < 0:
            raise ValueError(f"degree components must be non-negative: ({a}, {b})")
        return tuple.__new__(cls, (a, b))

    def __add__(self, other: "Degree") -> "Degree":
        if not isinstance(other, Degree):
            return NotImplemented
        return Degree(self.a + other.a, self.b + other.b)


ZERO_DEGREE = Degree(0, 0)
IDENTITY = GroupElement(False, 0)

# GroupElement validates nothing, so its hot paths skip the NamedTuple's Python
# __new__: _element((is_reflection, k)) builds the same value.
_element = partial(tuple.__new__, GroupElement)


def r(k: int) -> GroupElement:
    """The rotation r(k)."""
    return GroupElement(False, k)


def sr(k: int) -> GroupElement:
    """The reflection sr(k)."""
    return GroupElement(True, k)


def mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product in normal form; see the table in the module docstring."""
    if g.is_reflection:
        if h.is_reflection:
            return _element((False, h.k - g.k))
        return _element((True, g.k + h.k))
    if h.is_reflection:
        return _element((True, h.k - g.k))
    return _element((False, g.k + h.k))


def inverse(g: GroupElement) -> GroupElement:
    """Group inverse; reflections are their own inverses."""
    return g if g.is_reflection else GroupElement(False, -g.k)


def explicit_length(g: GroupElement) -> int:
    """Coxeter length of g, in closed form."""
    if not g.is_reflection:
        return 2 * abs(g.k)
    return 2 * g.k - 1 if g.k > 0 else 2 * abs(g.k) + 1


def embed(i: Generator) -> GroupElement:
    """The generator i as a group element."""
    return GroupElement(True, int(i))


def reduced_word(g: GroupElement) -> Word:
    """A reduced word for g: its product is g and its length is explicit_length(g)."""
    s0, s1 = Generator.S0, Generator.S1
    if not g.is_reflection:
        if g.k >= 0:
            return (s0, s1) * g.k
        return (s1, s0) * -g.k
    if g.k > 0:
        return (s1,) + (s0, s1) * (g.k - 1)
    return (s0,) + (s1, s0) * -g.k


def alternating_element(first: Generator, n: int) -> GroupElement:
    """Product of the length-n alternating word that starts with ``first``."""
    # (s0 s1)^m = r(m) and (s1 s0)^m = r(-m); an odd length appends ``first``.
    if n < 0:
        raise ValueError("word length must be non-negative")
    m, odd = divmod(n, 2)
    if first == Generator.S0:
        return GroupElement(True, -m) if odd else GroupElement(False, m)
    return GroupElement(True, m + 1) if odd else GroupElement(False, -m)


def enumerate_up_to_length(n: int) -> frozenset[GroupElement]:
    """All 2n + 1 elements of length at most n: the alternating words of length 0..n."""
    return frozenset(alternating_element(t, k) for t in Generator for k in range(n + 1))


def phi(g: GroupElement) -> Degree:
    """Letter counts (#s0, #s1) of a reduced word for g, in closed form."""
    if not g.is_reflection:
        return Degree(abs(g.k), abs(g.k))
    if g.k > 0:
        return Degree(g.k - 1, g.k)
    return Degree(abs(g.k) + 1, abs(g.k))


def bruhat_lt(u: GroupElement, v: GroupElement) -> bool:
    """Strict Bruhat order, which for this group is length comparison."""
    return explicit_length(u) < explicit_length(v)


def bruhat_le(u: GroupElement, v: GroupElement) -> bool:
    return u == v or bruhat_lt(u, v)


def degrees_up_to(limit: Degree) -> list[Degree]:
    """All degrees d <= limit, ordered lexicographically by (a, b)."""
    return [Degree(a, b) for a in range(limit.a + 1) for b in range(limit.b + 1)]


# -- canonical ordering and printing -----------------------------------------

def canonical_key(g: GroupElement) -> tuple[int, int, int]:
    """Sort key pinning printed order: length, rotations first, then k."""
    return (explicit_length(g), int(g.is_reflection), g.k)


def sort_elements(elements: Iterable[GroupElement]) -> list[GroupElement]:
    return sorted(elements, key=canonical_key)


def format_element(g: GroupElement) -> str:
    return f"sr({g.k})" if g.is_reflection else f"r({g.k})"


def format_element_set(elements: Iterable[GroupElement]) -> str:
    return "{" + ", ".join(format_element(g) for g in sort_elements(elements)) + "}"


def format_degree(d: Degree) -> str:
    return f"{d.a},{d.b}"


# A dict, not a tuple: a letter that is not a generator, such as -1, raises KeyError.
_LETTERS = {Generator.S0: "s0", Generator.S1: "s1"}


def format_word(word: Iterable[Generator]) -> str:
    return " ".join([_LETTERS[i] for i in word]) or "e"


# -- the element, degree and count grammar ------------------------------------

class _Reader:
    """Cursor over ``text`` with its blanks dropped; errors give original positions.

    Blanks may separate tokens but not split a number.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.positions = [i for i, ch in enumerate(text) if not ch.isspace()]
        self.chars = "".join(text[i] for i in self.positions)
        self.positions.append(len(text))
        self.at = 0

    def fail(self, message: str, position: int | None = None) -> NoReturn:
        if position is None:
            position = self.positions[self.at]
        raise ParseError(message, self.text, position)

    def take(self, token: str) -> bool:
        found = self.chars.startswith(token, self.at)
        if found:
            self.at += len(token)
        return found

    def expect(self, token: str) -> None:
        if not self.take(token):
            self.fail(f"expected {token!r}")

    def digits(self, what: str) -> str:
        # ASCII only: str.isdigit() also admits '²' (which int() rejects) and
        # '٣' (which int() reads as 3).
        chars, positions, start = self.chars, self.positions, self.at
        stop = start
        while stop < len(chars) and "0" <= chars[stop] <= "9":
            if stop > start and positions[stop] != positions[stop - 1] + 1:
                self.fail("unexpected blank inside a number", positions[stop - 1] + 1)
            stop += 1
        if stop == start:
            self.fail(f"expected {what}")
        self.at = stop
        return chars[start:stop]

    def end(self) -> None:
        if self.at != len(self.chars):
            self.fail("unexpected trailing text")


def _check_range(k: int, noun: str = "coefficient", supported: str = _COEFFICIENT_RANGE) -> int:
    if abs(k) > COEFFICIENT_BOUND:
        raise CoefficientRangeError(f"{noun} {k}", supported)
    return k


def _read_nat(digits: str, noun: str = "coefficient", supported: str = _COEFFICIENT_RANGE) -> int:
    # Refuse by width before int(), which raises past 4,300 digits.
    width = len(digits.lstrip("0"))
    if width > len(str(COEFFICIENT_BOUND)):
        raise CoefficientRangeError(f"{noun} of {width} digits", supported)
    return int(digits)


_ALIASES = {"1": IDENTITY, "s0": GroupElement(True, 0), "s1": GroupElement(True, 1)}


def parse_element(text: str) -> GroupElement:
    """Parse ``r(<int>)`` / ``sr(<int>)`` or the aliases ``1``, ``s0``, ``s1``."""
    reader = _Reader(text)
    if reader.chars in _ALIASES:
        return _ALIASES[reader.chars]
    reflection = reader.take("sr")
    if not (reflection or reader.take("r")):
        reader.fail("expected 'r(k)', 'sr(k)', '1', 's0' or 's1'")
    reader.expect("(")
    negative = reader.take("-")
    digits = reader.digits("an integer")
    reader.expect(")")
    reader.end()
    k = _read_nat(digits)
    return GroupElement(reflection, _check_range(-k if negative else k))


def parse_degree(text: str) -> Degree:
    """Parse ``<nat>,<nat>`` or ``(<nat>,<nat>)``."""
    reader = _Reader(text)
    wrapped = reader.take("(")
    a = _read_nat(reader.digits("a non-negative integer"))
    reader.expect(",")
    b = _read_nat(reader.digits("a non-negative integer"))
    if wrapped:
        reader.expect(")")
    reader.end()
    return Degree(_check_range(a), _check_range(b))


def parse_count(text: str, positive: bool = False) -> int:
    """Parse a count flag: one ``<nat>``, at least 1 if ``positive``."""
    what = "a positive integer" if positive else "a non-negative integer"
    reader = _Reader(text)
    n = _read_nat(reader.digits(what), "count", _COUNT_RANGE)
    reader.end()
    if positive and n == 0:
        reader.fail(f"expected {what}", reader.positions[0])
    return _check_range(n, "count", _COUNT_RANGE)
