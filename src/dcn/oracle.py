"""Brute-force curve neighborhoods and the differential harness.

The oracle computes neighborhoods straight from the definition (the
``maximal_elements`` of the chain-reachable set), never from the formula in
``neighborhood``, so comparing the two routes over a full (u, d) grid is a
genuine cross-check: the formula computes no length and makes no product.
The oracle's cost grows with d but not with the coefficient of u.
"""

from collections import namedtuple
from collections.abc import Iterable

from .dihedral import (
    Degree,
    GroupElement,
    _Value,
    degrees_up_to,
    enumerate_up_to_length,
    explicit_length,
    format_degree,
    format_element,
    format_element_set,
    sort_elements,
)
from .moment_graph import _pareto_fronts, reachable_set
from .neighborhood import curve_neighborhood

__all__ = [
    "DiffReport", "Mismatch", "curve_neighborhood_oracle", "differential_check", "format_report",
    "maximal_elements",
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

    One Pareto sweep from each u at max_d answers every d <= max_d; mismatches
    are listed in grid order.  ``jobs`` (at least 1) does not change the run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    bases = sort_elements(enumerate_up_to_length(max_u_length))
    degrees = degrees_up_to(max_d)
    mismatches = []
    for u in bases:
        fronts = _pareto_fronts(u, max_d)
        for d in degrees:
            reached = (v for v, front in fronts.items() if any(e <= d for e in front))
            brute = maximal_elements(reached)
            closed = curve_neighborhood(u, d)
            if closed != brute:
                mismatches.append(Mismatch(u, d, closed, brute))
    total = len(bases) * len(degrees)
    return DiffReport(total, total - len(mismatches), tuple(mismatches))


def format_report(report: DiffReport) -> list[str]:
    """Summary line plus one line per mismatch, in the element/degree grammar."""
    lines = [f"{report.cases_total} cases, {len(report.mismatches)} mismatches"]
    for m in report.mismatches:
        lines.append(
            f"mismatch u={format_element(m.u)} d={format_degree(m.d)} "
            f"closed={format_element_set(m.closed)} oracle={format_element_set(m.oracle)}"
        )
    return lines
