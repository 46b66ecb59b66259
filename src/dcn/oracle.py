"""Brute-force curve neighborhoods and the differential harness.

The oracle computes neighborhoods straight from the definition (the
``maximal_elements`` of the chain-reachable set), never from the formula in
``neighborhood``, so comparing the two routes over a full (u, d) grid is a
genuine cross-check: the formula computes no length and makes no product.
The oracle's cost grows with d but not with the coefficient of u.  Its bases come
in printed order from ``dihedral``, so it loads no grammar; ``format_report`` is there.
"""

from collections import namedtuple
from collections.abc import Iterable

from .dihedral import Degree, GroupElement, _Value, enumerate_up_to_length, explicit_length
from .moment_graph import _pareto_fronts, reachable_set
from .neighborhood import curve_neighborhood

__all__ = [
    "DiffReport", "Mismatch", "curve_neighborhood_oracle", "differential_check", "maximal_elements",
]


class Mismatch(_Value, namedtuple("Mismatch", ["u", "d", "closed", "oracle"])):
    """A grid case (u, d) where the two routes differ, with each route's element set."""

    __slots__ = ()


class DiffReport(_Value, namedtuple("DiffReport", ["cases_total", "cases_passed", "mismatches"])):
    """Outcome of one differential run; passed and mismatched cases partition the grid."""

    __slots__ = ()

    def __new__(
        cls, cases_total: int, cases_passed: int, mismatches: tuple[Mismatch, ...]
    ) -> "DiffReport":
        if cases_passed + len(mismatches) != cases_total:
            raise ValueError("case counts do not add up")
        return tuple.__new__(cls, (cases_total, cases_passed, tuple(mismatches)))

    @property
    def ok(self) -> bool:
        return not self.mismatches


def maximal_elements(elements: Iterable[GroupElement]) -> frozenset[GroupElement]:
    """Members no other member exceeds in length, i.e. the Bruhat-maximal ones."""
    pool = set(elements)
    if not pool:
        raise ValueError("maximal_elements needs a non-empty set")
    top = max(explicit_length(v) for v in pool)
    return frozenset(v for v in pool if explicit_length(v) == top)


def curve_neighborhood_oracle(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """The degree-d curve neighborhood of u, straight from the definition."""
    return maximal_elements(reachable_set(u, d))


def differential_check(max_u_length: int, max_d: Degree, jobs: int = 1) -> DiffReport:
    """Compare closed form and oracle for every u up to max_u_length and d <= max_d.

    One Pareto sweep per u at max_d files each vertex under each degree of its front.
    Walking d in grid order (the mismatches' order), the maxima at d are those of its
    files, of ``row[b]`` (the maxima at (a-1, b)) and of ``left`` (at (a, b-1)), empty
    below 0; they replace ``row[b]``, so one row is kept, and are ``left`` itself when
    equal to it, so equal cells share one set.  ``jobs`` changes nothing.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    bases = enumerate_up_to_length(max_u_length)
    mismatches = []
    for u in bases:
        filed = {}
        for v, front in _pareto_fronts(u, max_d).items():
            for e in front:
                filed.setdefault(e, []).append(v)
        row = [()] * (max_d.b + 1)
        for a in range(max_d.a + 1):
            left = ()
            for b in range(max_d.b + 1):
                d = Degree(a, b)
                brute = maximal_elements([*filed.get(d, ()), *row[b], *left])
                brute = left = row[b] = left if brute == left else brute
                closed = curve_neighborhood(u, d)
                if closed != brute:
                    mismatches.append(Mismatch(u, d, closed, brute))
    total = len(bases) * (max_d.a + 1) * (max_d.b + 1)
    return DiffReport(total, total - len(mismatches), tuple(mismatches))
