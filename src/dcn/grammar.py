"""The printed grammar: element, degree and count text, read and written.

Elements print as ``r(k)`` and ``sr(k)`` (``format_element`` lives in ``dihedral``,
since an element's repr needs it), element sets as ``{...}`` in ``canonical_key``
order, degrees as ``a,b``, words as their letters and a ``DiffReport`` as lines.  The
parsers read that text back, with the aliases ``1``, ``s0`` and ``s1``, and refuse a
number past ``COEFFICIENT_BOUND`` = ``2**31``.  Only what reads or prints text loads
this module: the closed form, the chain search and the oracle never do.
"""

from collections.abc import Iterable

from .dihedral import IDENTITY, Degree, Generator, GroupElement, explicit_length, format_element

__all__ = [
    "COEFFICIENT_BOUND", "CoefficientRangeError", "ParseError", "canonical_key", "format_degree",
    "format_element_set", "format_report", "format_word", "parse_degree", "parse_element",
    "sort_elements",
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


# -- canonical ordering and printing -----------------------------------------

def canonical_key(g: GroupElement) -> tuple[int, int]:
    """Sort key pinning printed order: length, then k."""
    return (explicit_length(g), g.k)


def sort_elements(elements: Iterable[GroupElement]) -> list[GroupElement]:
    """The elements as a list in printed order, by ``canonical_key``."""
    return sorted(elements, key=canonical_key)


def format_element_set(elements: Iterable[GroupElement]) -> str:
    """The elements as ``{g, h, ...}`` in printed order; an empty set prints ``{}``."""
    return "{" + ", ".join(format_element(g) for g in sort_elements(elements)) + "}"


def format_degree(d: Degree) -> str:
    """The degree as ``a,b``, which ``parse_degree`` reads back."""
    return f"{d.a},{d.b}"


# A dict, not a tuple: a letter that is not a generator, such as -1, raises KeyError.
_LETTERS = {Generator.S0: "s0", Generator.S1: "s1"}


def format_word(word: Iterable[Generator]) -> str:
    """The letters ``s0`` and ``s1`` joined by blanks; the empty word prints ``e``."""
    return " ".join([_LETTERS[i] for i in word]) or "e"


def format_report(report) -> list[str]:
    """A ``DiffReport``'s summary line plus one line per mismatch, in this grammar."""
    lines = [f"{report.cases_total} cases, {len(report.mismatches)} mismatches"]
    for m in report.mismatches:
        lines.append(
            f"mismatch u={format_element(m.u)} d={format_degree(m.d)} "
            f"closed={format_element_set(m.closed)} oracle={format_element_set(m.oracle)}"
        )
    return lines


# -- the element, degree and count grammar ------------------------------------

class _Reader:
    """Cursor over ``text`` that skips the blanks after each token; errors give positions.

    Blanks may separate tokens but not split one: ``s r(3)``, ``s 0`` and ``r(1 2)``
    are refused.  ``number`` checks each number where it reads it.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.skip(0)

    def skip(self, start: int) -> None:
        text = self.text
        while start < len(text) and text[start].isspace():
            start += 1
        self.at = start

    def fail(self, message: str, position: int | None = None):
        raise ParseError(message, self.text, self.at if position is None else position)

    def take(self, token: str) -> bool:
        found = self.text.startswith(token, self.at)
        if found:
            self.skip(self.at + len(token))
        return found

    def expect(self, token: str) -> None:
        if not self.take(token):
            self.fail(f"expected {token!r}")

    def number(
        self, what: str, signed: bool = False, noun: str = "coefficient",
        supported: str = _COEFFICIENT_RANGE,
    ) -> int:
        """ASCII digits, after a ``-`` if ``signed``: refused by blank, width, then value."""
        negative = signed and self.take("-")
        # ASCII only: str.isdigit() also admits '²' (which int() rejects) and
        # '٣' (which int() reads as 3).
        text, start = self.text, self.at
        stop = len(text) - len(text[start:].lstrip("0123456789"))
        if stop == start:
            self.fail(f"expected {what}")
        self.skip(stop)
        if stop < self.at < len(text) and "0" <= text[self.at] <= "9":
            self.fail("unexpected blank inside a number", stop)
        # Refuse by width before int(), which raises past 4,300 digits.
        width = len(text[start:stop].lstrip("0"))
        if width > len(str(COEFFICIENT_BOUND)):
            raise CoefficientRangeError(f"{noun} of {width} digits", supported)
        n = -int(text[start:stop]) if negative else int(text[start:stop])
        if abs(n) > COEFFICIENT_BOUND:
            raise CoefficientRangeError(f"{noun} {n}", supported)
        return n

    def end(self) -> None:
        if self.at != len(self.text):
            self.fail("unexpected trailing text")


_ALIASES = {"1": IDENTITY, "s0": GroupElement(True, 0), "s1": GroupElement(True, 1)}


def parse_element(text: str) -> GroupElement:
    """Parse ``r(<int>)`` / ``sr(<int>)`` or the aliases ``1``, ``s0``, ``s1``."""
    alias = text.strip()
    if alias in _ALIASES:
        return _ALIASES[alias]
    reader = _Reader(text)
    reflection = reader.take("sr")
    if not (reflection or reader.take("r")):
        reader.fail("expected 'r(k)', 'sr(k)', '1', 's0' or 's1'")
    reader.expect("(")
    k = reader.number("an integer", signed=True)
    reader.expect(")")
    reader.end()
    return GroupElement(reflection, k)


def parse_degree(text: str) -> Degree:
    """Parse ``<nat>,<nat>`` or ``(<nat>,<nat>)``."""
    reader = _Reader(text)
    wrapped = reader.take("(")
    a = reader.number("a non-negative integer")
    reader.expect(",")
    b = reader.number("a non-negative integer")
    if wrapped:
        reader.expect(")")
    reader.end()
    return Degree(a, b)


def parse_count(text: str, positive: bool = False) -> int:
    """Parse a count flag: one ``<nat>``, at least 1 if ``positive``."""
    what = "a positive integer" if positive else "a non-negative integer"
    reader = _Reader(text)
    start = reader.at
    n = reader.number(what, noun="count", supported=_COUNT_RANGE)
    reader.end()
    if positive and n == 0:
        reader.fail(f"expected {what}", start)
    return n
