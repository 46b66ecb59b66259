"""Definition-level neighborhoods and the differential harness."""

import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

import dcn.moment_graph
import dcn.oracle
from dcn import (
    COEFFICIENT_BOUND,
    Degree,
    DiffReport,
    GroupElement,
    Mismatch,
    curve_neighborhood_oracle,
    differential_check,
    enumerate_up_to_length,
    explicit_length,
    format_report,
    inverse,
    mul,
    phi,
    r,
    reachable_set,
    sort_elements,
    sr,
)
from dcn.moment_graph import _pareto_fronts
from calls import Calls
from reference import degrees_up_to, maxima_by_rescan, mirror, reachable_by_letter_counts


def test_oracle_zero_degree():
    for u in (r(0), sr(2), r(-5)):
        assert curve_neighborhood_oracle(u, Degree(0, 0)) == frozenset({u})


def test_oracle_identity_2_2():
    assert curve_neighborhood_oracle(r(0), Degree(2, 2)) == frozenset({r(2), r(-2)})


def test_oracle_s0_2_3():
    # The answer stays a rotation: a chain endpoint v satisfies
    # phi(u^-1 v) <= d, so nothing longer than l(u) + 5 = 6 is reachable and
    # sr(-3) at length 7 is out of reach at this degree.
    assert curve_neighborhood_oracle(sr(0), Degree(2, 3)) == frozenset({r(3)})


def test_oracle_members_are_longest_reachable():
    for u in sort_elements(enumerate_up_to_length(3)):
        for d in degrees_up_to(Degree(2, 2)):
            found = reachable_set(u, d)
            gamma = curve_neighborhood_oracle(u, d)
            top = max(explicit_length(v) for v in found)
            assert gamma <= found
            assert all(explicit_length(v) == top for v in gamma)


def test_reachable_elements_obey_degree_bound():
    # every chain endpoint v satisfies phi(u^-1 v) <= d, exhaustively on the
    # same grid the differential harness uses
    for u in sort_elements(enumerate_up_to_length(6)):
        for d in degrees_up_to(Degree(4, 4)):
            for v in reachable_set(u, d):
                assert phi(mul(inverse(u), v)) <= d


def test_differential_check_trivial_grid():
    report = differential_check(0, Degree(0, 0))
    assert report.cases_total == 1
    assert report.cases_passed == 1
    assert report.mismatches == ()
    assert report.ok


def test_differential_check_small_grid():
    report = differential_check(2, Degree(1, 1))
    assert report.cases_total == 20
    assert report.cases_passed == 20
    assert report.mismatches == ()


def test_differential_check_jobs_agree():
    sequential = differential_check(3, Degree(2, 2))
    with_jobs = differential_check(3, Degree(2, 2), jobs=4)
    assert sequential == with_jobs
    assert sequential.cases_total == 7 * 9


def test_diff_report_counts_must_add_up():
    stray = Mismatch(r(0), Degree(0, 0), frozenset({r(0)}), frozenset({sr(1)}))
    with pytest.raises(ValueError):
        DiffReport(cases_total=2, cases_passed=2, mismatches=(stray,))


def test_format_report():
    clean = differential_check(2, Degree(1, 1))
    assert format_report(clean) == ["20 cases, 0 mismatches"]

    bad = DiffReport(
        cases_total=1,
        cases_passed=0,
        mismatches=(
            Mismatch(sr(0), Degree(2, 3), frozenset({r(3)}), frozenset({sr(-3)})),
        ),
    )
    assert format_report(bad) == [
        "1 cases, 1 mismatches",
        "mismatch u=sr(0) d=2,3 closed={r(3)} oracle={sr(-3)}",
    ]


def test_differential_check_rejects_jobs_below_1():
    with pytest.raises(ValueError):
        differential_check(1, Degree(1, 1), jobs=0)


def test_differential_check_reports_real_mismatches(monkeypatch):
    # A closed form that is wrong on two cells, then on every cell: the report must
    # name exactly those cells, in grid order, each with the oracle's own answer.
    wrong = frozenset({r(99)})
    real = dcn.oracle.curve_neighborhood
    for max_u_length, max_d, cells, counts in [
        (2, Degree(1, 1), [(sr(0), Degree(1, 0)), (r(1), Degree(0, 1))], (20, 18)),
        (8, Degree(6, 6), None, (833, 0)),
    ]:
        bases = sort_elements(enumerate_up_to_length(max_u_length))
        cells = cells or [(u, d) for u in bases for d in degrees_up_to(max_d)]
        broken = set(cells)
        monkeypatch.setattr(
            dcn.oracle, "curve_neighborhood", lambda u, d: wrong if (u, d) in broken else real(u, d)
        )
        report = differential_check(max_u_length, max_d)
        assert (report.cases_total, report.cases_passed) == counts
        assert report.mismatches == tuple(
            Mismatch(u, d, wrong, curve_neighborhood_oracle(u, d)) for u, d in cells
        )
        assert not report.ok


def test_differential_check_reads_fronts_of_several_degrees(monkeypatch):
    # Every real front is one degree.  Widened to the rest of its degree's anti-diagonal
    # within the corner, an antichain, each front reaches its vertex in more cells;
    # with a closed form wrong everywhere, each cell's oracle set must still be the
    # one a rescan of the same fronts finds.
    corner, wrong = Degree(6, 6), frozenset({r(99)})
    real = dcn.oracle._pareto_fronts

    def widened(u, d):
        return {
            v: [Degree(a, e.a + e.b - a) for a in range(d.a + 1) if 0 <= e.a + e.b - a <= d.b]
            for v, (e,) in real(u, d).items()
        }

    monkeypatch.setattr(dcn.oracle, "_pareto_fronts", widened)
    monkeypatch.setattr(dcn.oracle, "curve_neighborhood", lambda u, d: wrong)
    report = differential_check(8, corner)
    bases = sort_elements(enumerate_up_to_length(8))
    assert report.mismatches == tuple(
        Mismatch(u, d, wrong, maxima_by_rescan(widened(u, corner), d))
        for u in bases for d in degrees_up_to(corner)
    )
    # The widening moves the answer of 618 of the 833 cells off the real oracle's.
    moved = [m for m in report.mismatches if m.oracle != curve_neighborhood_oracle(m.u, m.d)]
    assert len(moved) == 618


def test_differential_check_reads_each_degree_off_the_two_below():
    # Each degree's maxima come from the vertices filed under it and the maxima at
    # (a-1, b) and (a, b-1): 3,523 elements in all on (10, 8,8), and no call sees more
    # than 4, where rescanning every reached front at each degree passed 12,981.
    with Calls() as calls:
        assert differential_check(10, Degree(8, 8)).ok
    sizes = [len(elements) for elements, in calls[dcn.oracle.maximal_elements].args]
    assert (len(sizes), sum(sizes), max(sizes)) == (1701, 3523, 4)
    # The 21 sweeps pop 521 states: 485 expand and 36 are stale.  Each expansion takes
    # one product per fitting root, and each spend reached joins its vertex's front
    # (and is queued) or is pruned.
    inserted = Counter(calls[dcn.moment_graph._insert_pareto].values)
    assert calls[_pareto_fronts].entries == 21
    assert calls[dcn.moment_graph._increasing_steps].entries == 485
    assert (inserted[True], inserted[False]) == (500, 1532)
    assert calls[mul].entries == 3480


def test_differential_check_holds_one_set_for_a_run_of_equal_maxima():
    # From the identity at (0, 65535), every cell past the first has the maxima {sr(1)}.
    # Each is kept as the set already held to its left, so the row of 65,536 cells holds
    # one set: the peak is about 0.5 MiB, where a fresh set per cell reached 14 MiB.
    tracemalloc.start()
    try:
        report = differential_check(0, Degree(0, 65535))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.cases_total, report.ok) == (65536, True)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB, budget 2 MiB"


def test_one_sweep_answers_every_degree():
    corner = Degree(6, 6)
    for u in sort_elements(enumerate_up_to_length(6)):
        fronts = _pareto_fronts(u, corner)
        for e in degrees_up_to(corner):
            swept = {v for v, front in fronts.items() if any(f <= e for f in front)}
            assert swept == reachable_set(u, e), (u, e)


def test_the_sweep_expands_each_reached_vertex_once():
    # A popped state whose spend a smaller one has since replaced in the vertex's
    # front is skipped, so from s0 every reached vertex scans its steps once.
    for big, pops in ((4, 15), (16, 63), (64, 255), (128, 511)):
        with Calls() as calls:
            fronts = _pareto_fronts(sr(0), Degree(big, big))
        scanned = [v for v, *_ in calls[dcn.moment_graph._increasing_steps].args]
        assert len(scanned) == pops, big
        assert sorted(scanned) == sorted(fronts)


def test_relabeling_commutes_with_the_fronts():
    # s0 <-> s1 takes the front of v at d to the front of mirror(v) at (d.b, d.a),
    # each degree swapped; a front is a set of incomparable degrees, so order is free.
    for u in sort_elements(enumerate_up_to_length(8)):
        for d in degrees_up_to(Degree(5, 5)):
            mirrored = {
                mirror(v): {Degree(f.b, f.a) for f in front}
                for v, front in _pareto_fronts(u, d).items()
            }
            fronts = _pareto_fronts(mirror(u), Degree(d.b, d.a))
            assert {v: set(front) for v, front in fronts.items()} == mirrored, (u, d)


def test_reachable_sets_are_the_longer_translates_within_d():
    cases = 0
    for u in sort_elements(enumerate_up_to_length(8)):
        for d in degrees_up_to(Degree(6, 6)):
            assert reachable_set(u, d) == reachable_by_letter_counts(u, d), (u, d)
            cases += 1
    assert cases == 833


def test_every_front_is_the_one_degree_phi_of_the_quotient():
    # A vertex v reached from u has one minimal chain degree, phi(u^-1 v).
    cases = vertices = 0
    for u in sort_elements(enumerate_up_to_length(10)):
        for d in degrees_up_to(Degree(6, 6)):
            for v, front in _pareto_fronts(u, d).items():
                assert front == [phi(mul(inverse(u), v))], (u, d, v)
                vertices += 1
            cases += 1
    assert (cases, vertices) == (1029, 5985)


@given(
    st.builds(GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)),
    st.builds(Degree, st.integers(0, 4), st.integers(0, 4)),
)
def test_reachable_sets_and_fronts_up_to_the_coefficient_bound(u, d):
    fronts = _pareto_fronts(u, d)
    assert frozenset(fronts) == reachable_by_letter_counts(u, d)
    assert all(front == [phi(mul(inverse(u), v))] for v, front in fronts.items())


def test_differential_check_grid_12_10_10():
    start = time.perf_counter()
    report = differential_check(12, Degree(10, 10))
    elapsed = time.perf_counter() - start
    assert (report.cases_total, report.cases_passed, report.mismatches) == (3025, 3025, ())
    assert elapsed < 5, f"differential_check(12, (10,10)) took {elapsed:.2f}s, budget 5s"
    # One chain search per base point: 25 bases, so 25 root tables.
    with Calls() as calls:
        differential_check(12, Degree(10, 10))
    assert calls[dcn.moment_graph.roots_bounded].args == [(Degree(10, 10),)] * 25
