"""Roots, edges, chains, reachability, and the DOT export."""

import pytest

from dcn import (
    Chain,
    ChainStep,
    Degree,
    Root,
    enumerate_chains,
    enumerate_up_to_length,
    explicit_length,
    graph_slice,
    phi,
    r,
    reachable_set,
    root_of_reflection,
    root_reflection,
    roots_bounded,
    sort_elements,
    sr,
    to_dot,
)
from reference import (
    chain_parity_witness,
    degrees_up_to,
    format_chain,
    graph_slice_by_roots,
    has_increasing_chain,
    is_edge,
    successors,
)


# -- roots ---------------------------------------------------------------------

@pytest.mark.parametrize("a,b", [(2, 2), (0, 0), (-1, 0), (3, 1)])
def test_root_rejects_invalid_pairs(a, b):
    with pytest.raises(ValueError):
        Root(a, b)


@pytest.mark.parametrize(
    "alpha,expected",
    [(Root(0, 1), sr(1)), (Root(1, 0), sr(0)), (Root(2, 3), sr(3)), (Root(3, 2), sr(-2))],
)
def test_root_reflection(alpha, expected):
    # independent oracle: scan all reflections of the right length for the
    # unique one whose letter counts match the root
    matches = [
        g
        for g in enumerate_up_to_length(alpha.a + alpha.b)
        if g.is_reflection
        and explicit_length(g) == alpha.a + alpha.b
        and phi(g) == alpha
    ]
    assert matches == [expected]
    assert root_reflection(alpha) == expected


@pytest.mark.parametrize(
    "g,expected",
    [(sr(1), Root(0, 1)), (sr(0), Root(1, 0)), (sr(-2), Root(3, 2))],
)
def test_root_of_reflection(g, expected):
    assert root_of_reflection(g) == expected
    assert root_reflection(root_of_reflection(g)) == g


def test_root_of_reflection_rejects_rotations():
    with pytest.raises(ValueError):
        root_of_reflection(r(2))


def test_roots_bounded():
    assert roots_bounded(Degree(0, 0)) == []
    assert roots_bounded(Degree(1, 1)) == [Root(0, 1), Root(1, 0)]
    assert roots_bounded(Degree(2, 3)) == [
        Root(0, 1),
        Root(1, 0),
        Root(1, 2),
        Root(2, 1),
        Root(2, 3),
    ]
    for a, b in [(0, 5), (5, 0), (3, 7), (7, 3)]:
        valid = [Root(x, y) for x in range(a + 1) for y in range(b + 1) if abs(x - y) == 1]
        valid.sort(key=lambda alpha: (alpha.a + alpha.b, alpha.a))
        assert roots_bounded(Degree(a, b)) == valid


def test_fitting_roots_are_a_prefix_but_for_one_hole():
    # The roots of roots_bounded(limit) that fit a room (ra, rb) are a prefix of it,
    # but for the root (rb, rb + 1) when ra > rb, so a scan can stop past the prefix.
    pairs = 0
    for limit in degrees_up_to(Degree(12, 12)):
        roots = roots_bounded(limit)
        for room in degrees_up_to(limit):
            fits = [alpha <= room for alpha in roots]
            prefix = max((i + 1 for i, fit in enumerate(fits) if fit), default=0)
            holes = [alpha for alpha, fit in zip(roots[:prefix], fits) if not fit]
            allowed = [Root(room.b, room.b + 1)] if room.a > room.b else []
            assert holes in ([], allowed), (limit, room)
            pairs += 1
    assert pairs == 8281


def test_reflection_degree_matches_root():
    for alpha in roots_bounded(Degree(6, 6)):
        assert phi(root_reflection(alpha)) == alpha
        assert explicit_length(root_reflection(alpha)) == alpha.a + alpha.b
        assert root_of_reflection(root_reflection(alpha)) == alpha


@pytest.mark.parametrize("alpha", roots_bounded(Degree(5, 5)), ids=str)
def test_a_root_is_the_degree_with_its_counts(alpha):
    # So chain search and its tests use a root wherever a degree goes, with no conversion.
    degree = Degree(*alpha)
    assert (alpha == degree, hash(alpha) == hash(degree), {alpha} == {degree}) == (True,) * 3
    for other in degrees_up_to(Degree(6, 6)):
        assert (alpha <= other, alpha < other, alpha >= other, alpha > other) == (
            degree <= other, degree < other, degree >= other, degree > other)
        assert (other <= alpha, other < alpha) == (other <= degree, other < degree)


# -- edges and successors --------------------------------------------------------

def test_is_edge():
    assert is_edge(r(0), sr(1), Root(0, 1))
    assert not is_edge(r(0), sr(1), Root(1, 0))
    assert is_edge(sr(0), r(-1), Root(2, 1))


def test_successors():
    assert successors(r(0), Degree(0, 0)) == []
    assert successors(r(0), Degree(1, 1)) == [(Root(0, 1), sr(1)), (Root(1, 0), sr(0))]
    assert successors(sr(0), Degree(1, 1)) == [(Root(0, 1), r(1))]


# -- reachability -----------------------------------------------------------------

def test_reachable_set_zero_budget():
    for u in (r(0), sr(4), r(-17)):
        assert reachable_set(u, Degree(0, 0)) == frozenset({u})


def test_reachable_set_identity_budget_one_one():
    assert reachable_set(r(0), Degree(1, 1)) == frozenset({r(0), sr(0), sr(1), r(1), r(-1)})


def test_reachable_set_s0_budget_2_3():
    # brute-force longest endpoint: 1 + (2 + 3) = 6, attained only by r(3)
    found = reachable_set(sr(0), Degree(2, 3))
    assert max(explicit_length(v) for v in found) == 6
    assert {v for v in found if explicit_length(v) == 6} == {r(3)}


@pytest.mark.parametrize("u", sort_elements(enumerate_up_to_length(3)))
@pytest.mark.parametrize("d", degrees_up_to(Degree(2, 2)))
def test_reachable_set_matches_chain_endpoints(u, d):
    # dual route: pruned breadth-first search vs plain exhaustive chain listing
    assert reachable_set(u, d) == {c.end for c in enumerate_chains(u, d)}


def test_reachable_set_budget_monotone():
    grid = degrees_up_to(Degree(2, 2))
    for u in sort_elements(enumerate_up_to_length(2)):
        found = {d: reachable_set(u, d) for d in grid}
        for d in grid:
            for dd in grid:
                if d <= dd:
                    assert found[d] <= found[dd]


def test_reachable_lengths_bounded_by_budget():
    for u in sort_elements(enumerate_up_to_length(3)):
        for d in degrees_up_to(Degree(2, 2)):
            cap = explicit_length(u) + d.a + d.b
            assert all(explicit_length(v) <= cap for v in reachable_set(u, d))


# -- chains -----------------------------------------------------------------------

def test_enumerate_chains_zero_budget():
    assert enumerate_chains(sr(5), Degree(0, 0)) == [Chain(sr(5))]


def test_enumerate_chains_budget_1_0():
    assert enumerate_chains(r(0), Degree(1, 0)) == [
        Chain(r(0)),
        Chain(r(0), (ChainStep(Root(1, 0), sr(0)),)),
    ]


def test_enumerate_chains_includes_two_step_chain():
    chain = Chain(sr(0), (ChainStep(Root(2, 1), r(-1)), ChainStep(Root(3, 2), sr(-1))))
    assert chain in enumerate_chains(sr(0), Degree(5, 3))


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(r(0), (ChainStep(Root(0, 1), r(5)),))  # not an edge
    with pytest.raises(ValueError):
        Chain(sr(1), (ChainStep(Root(0, 1), r(0)),))  # edge, but length decreases


def test_chain_end_and_degree():
    chain = Chain(sr(0), (ChainStep(Root(2, 1), r(-1)), ChainStep(Root(3, 2), sr(-1))))
    assert chain.end == sr(-1)
    assert chain.degree() == Degree(5, 3)
    assert format_chain(chain) == "sr(0) -[2,1]-> r(-1) -[3,2]-> sr(-1)  degree 5,3"


def test_chain_parity_witness_examples():
    assert chain_parity_witness(Chain(sr(7))) == (0, 0)
    assert chain_parity_witness(Chain(r(0), (ChainStep(Root(0, 1), sr(1)),))) == (0, 0)
    chain = Chain(sr(0), (ChainStep(Root(2, 1), r(-1)), ChainStep(Root(3, 2), sr(-1))))
    assert chain_parity_witness(chain) == (2, 1)


def test_chain_parity_witness_small_grid():
    for u in sort_elements(enumerate_up_to_length(2)):
        for chain in enumerate_chains(u, Degree(2, 2)):
            gap_r, gap_s = chain_parity_witness(chain)
            assert gap_r >= 0 and gap_s >= 0


# -- chain existence ---------------------------------------------------------------

def test_has_increasing_chain_examples():
    assert has_increasing_chain(sr(3), sr(3))
    assert not has_increasing_chain(sr(0), sr(1))
    assert has_increasing_chain(sr(0), r(3))


def test_chain_existence_matches_length_order_small():
    pool = sort_elements(enumerate_up_to_length(3))
    for u in pool:
        for v in pool:
            expected = u == v or explicit_length(u) < explicit_length(v)
            assert has_increasing_chain(u, v) == expected


# -- graph export ------------------------------------------------------------------

def test_graph_slice_small():
    vertices, edges = graph_slice(1)
    assert vertices == [r(0), sr(0), sr(1)]
    assert edges == [(r(0), Root(0, 1), sr(1)), (r(0), Root(1, 0), sr(0))]


def test_graph_slice_edges_are_edges():
    vertices, edges = graph_slice(4)
    for u, alpha, v in edges:
        assert is_edge(u, v, alpha)
        assert explicit_length(u) < explicit_length(v) <= 4
        assert u in vertices and v in vertices


@pytest.mark.parametrize("n", range(-1, 41))
def test_graph_slice_matches_a_scan_of_every_root(n):
    # graph_slice reads each edge off the two lengths and takes no product; the
    # reference multiplies every vertex by every root of the table.
    assert graph_slice(n) == graph_slice_by_roots(n)


def test_to_dot_golden():
    expected = [
        "digraph moment_graph {",
        "  rankdir=BT;",
        '  { rank=same; "r(0)"; }',
        '  { rank=same; "sr(0)"; "sr(1)"; }',
        '  "r(0)" -> "sr(1)" [label="0,1"];',
        '  "r(0)" -> "sr(0)" [label="1,0"];',
        "}",
    ]
    assert list(to_dot(1)) == expected


def test_to_dot_deterministic():
    assert list(to_dot(4)) == list(to_dot(4))
