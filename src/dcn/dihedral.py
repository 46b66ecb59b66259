"""Exact arithmetic in the infinite dihedral group.

Every group element has a unique normal form: a rotation ``r(k)`` of even
Coxeter length 2|k|, or a reflection ``sr(k)`` of odd length (2k - 1 when
k > 0, otherwise 2|k| + 1), with k any integer.  Products follow the table

    r(i)  * r(j)  = r(i + j)        r(i)  * sr(j) = sr(j - i)
    sr(i) * r(j)  = sr(i + j)       sr(i) * sr(j) = r(j - i)

so r(0) is the identity and every reflection is an involution.  The two
Coxeter generators are s0 = sr(0) and s1 = sr(1).  Bruhat order in this group
is plain length comparison, so ``explicit_length`` decides it.

This module also houses degrees (pairs of letter counts ordered
componentwise), reduced words, the letter-count map ``phi``, and an element's
printed name ``format_element``, which its repr shows; the rest of the printed
grammar is in ``grammar``.  Every value type of the package is
an immutable, hashable ``collections.namedtuple`` on one base, ``_Value``:
``+`` and ``*`` never concatenate or repeat it, and ``_make`` and ``_replace``
validate.  Each also compares equal to a plain tuple with the same fields.
Degrees and roots share ``_Counts``, so they are ordered componentwise, with
each other too, and refuse to be ordered against a plain tuple or an element,
either way round; an element keeps tuple order against anything else.
"""

from collections import namedtuple
from collections.abc import Iterable
from enum import IntEnum
from types import MethodType

__all__ = [
    "Degree", "Generator", "GroupElement", "IDENTITY", "Word", "ZERO_DEGREE",
    "enumerate_up_to_length", "explicit_length", "format_element", "inverse", "mul", "phi", "r",
    "reduced_word", "sr",
]


class Generator(IntEnum):
    """The two involutive generators; as elements, S0 is sr(0) and S1 is sr(1)."""

    S0 = 0
    S1 = 1


Word = tuple[Generator, ...]


class _Value(tuple):
    """Base of every value type: a named tuple that validates however it is built.

    ``+`` and ``*`` return NotImplemented, so Python raises TypeError instead of
    concatenating or repeating the tuple, unless a subclass defines them.  The
    namedtuple ``_make``, and so ``_replace``, builds the tuple without calling
    ``__new__``; this ``_make`` goes through it.
    """

    __slots__ = ()

    def __add__(self, other):
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

    @classmethod
    def _make(cls, iterable: Iterable):
        return cls(*iterable)


class GroupElement(_Value, namedtuple("GroupElement", ["is_reflection", "k"])):
    """Normal form of a group element: rotation r(k) or reflection sr(k).

    ``g * h`` is the group product; ``<`` is tuple order, not Bruhat order
    (compare ``explicit_length``, or use ``sort_elements``).  Ordering an element
    against a degree or a root raises TypeError, as ``_Counts`` does the other way
    round.
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


class _Counts(_Value, namedtuple("_Counts", ["a", "b"])):
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


def _refuse_order(left: object, right: object):
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

# GroupElement validates nothing, so its hot paths skip the namedtuple's Python
# __new__: _element((is_reflection, k)) builds the same value.  A method bound to
# the class makes that one C call; a partial adds a layer of its own to each.
_element = MethodType(tuple.__new__, GroupElement)


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


def enumerate_up_to_length(n: int) -> list[GroupElement]:
    """All 2n + 1 elements of length at most n, in printed order: by length, then by k."""
    # Length m holds one type, rotations when m is even: k = -(m // 2) and (m + 1) // 2.
    return [
        GroupElement(bool(m % 2), k)
        for m in range(n + 1)
        for k in dict.fromkeys((-(m // 2), (m + 1) // 2))
    ]


def phi(g: GroupElement) -> Degree:
    """Letter counts (#s0, #s1) of a reduced word for g, in closed form."""
    if not g.is_reflection:
        return Degree(abs(g.k), abs(g.k))
    if g.k > 0:
        return Degree(g.k - 1, g.k)
    return Degree(abs(g.k) + 1, abs(g.k))


def format_element(g: GroupElement) -> str:
    """The printed name of g: ``r(k)`` or ``sr(k)``."""
    return f"sr({g.k})" if g.is_reflection else f"r({g.k})"

