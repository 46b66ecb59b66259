"""Roots, moment-graph edges, and increasing-chain search.

The moment graph has a vertex for every group element and, for each root
(a, b), an edge u -> u * s_(a,b) of degree (a, b).  Chains walk edges while
strictly increasing Coxeter length; their degree is the sum of edge degrees.

Every search here builds its root table, each root of ``roots_bounded`` with its
reflection, once per call.  Chains come from one depth-first walk, ``_walk``, as
tuples of step tokens, each built once per vertex step and shared (see there).
``chain_lines`` streams the printed chains, ``enumerate_chains`` lists them and
``dcn chains --json`` builds its records from it, in one order; ``to_dot`` yields lines.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from typing import Callable, Iterator, NamedTuple, TypeVar

from .dihedral import (
    Degree,
    GroupElement,
    ZERO_DEGREE,
    _Counts,
    _Value,
    enumerate_up_to_length,
    explicit_length,
    format_element,
    halved_gap,
    inverse,
    mul,
    phi,
    sort_elements,
    sr,
)

__all__ = [
    "Chain", "ChainStep", "Root", "chain_lines", "chain_parity_witness", "enumerate_chains",
    "graph_slice", "reachable_set", "root_of_reflection", "root_reflection", "roots_bounded",
    "to_dot",
]


class Root(_Counts):
    """Pair (a, b) of non-negative counts with |a - b| = 1; labels an edge."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> Root:
        if a < 0 or b < 0 or abs(a - b) != 1:
            raise ValueError(f"not a root: ({a}, {b})")
        return tuple.__new__(cls, (a, b))

    def to_degree(self) -> Degree:
        return Degree(self.a, self.b)


class ChainStep(_Value, NamedTuple("ChainStep", [("root", Root), ("target", GroupElement)])):
    __slots__ = ()


class Chain(_Value, NamedTuple("Chain", [
    ("start", GroupElement), ("steps", tuple[ChainStep, ...]),
])):
    """Length-increasing path in the moment graph: start vertex plus labeled steps.

    Validated on construction: every step must be a genuine edge and must
    strictly increase Coxeter length.
    """

    __slots__ = ()

    def __new__(cls, start: GroupElement, steps: tuple[ChainStep, ...] = ()) -> Chain:
        v = start
        for step in steps:
            if step.target != mul(v, root_reflection(step.root)):
                raise ValueError(
                    f"{step.target!r} is not the ({step.root.a},{step.root.b})-neighbor of {v!r}"
                )
            if explicit_length(step.target) <= explicit_length(v):
                raise ValueError(f"chain does not increase in length at {step.target!r}")
            v = step.target
        return tuple.__new__(cls, (start, steps))

    @property
    def end(self) -> GroupElement:
        return self.steps[-1].target if self.steps else self.start

    def degree(self) -> Degree:
        return Degree(sum(s.root.a for s in self.steps), sum(s.root.b for s in self.steps))


def root_reflection(alpha: Root) -> GroupElement:
    """The unique reflection whose letter counts equal the root."""
    return sr(alpha.b) if alpha.b == alpha.a + 1 else sr(-alpha.b)


def root_of_reflection(g: GroupElement) -> Root:
    """Inverse of root_reflection; rejects rotations."""
    if not g.is_reflection:
        raise ValueError(f"not a reflection: {g!r}")
    counts = phi(g)
    return Root(counts.a, counts.b)


def roots_bounded(limit: Degree) -> list[Root]:
    """Roots whose degree fits under ``limit``, ordered by (a + b, a)."""
    # The roots of sum 2m + 1 are (m, m + 1) and (m + 1, m), in that order.
    found = []
    for m in range(min(limit.a, limit.b) + 1):
        if m < limit.b:
            found.append(Root(m, m + 1))
        if m < limit.a:
            found.append(Root(m + 1, m))
    return found


def _root_table(limit: Degree) -> list[tuple[Root, GroupElement]]:
    """roots_bounded(limit), each with its reflection."""
    return [(alpha, root_reflection(alpha)) for alpha in roots_bounded(limit)]


def _increasing_steps(
    u: GroupElement, table: list[tuple[Root, GroupElement]], room_a: int, room_b: int
) -> list[tuple[Root, GroupElement]]:
    """The table roots of degree at most (room_a, room_b) whose edge from u increases length."""
    length_u = explicit_length(u)
    out = []
    for alpha, reflection in table:
        if alpha.a <= room_a and alpha.b <= room_b:
            v = mul(u, reflection)
            if explicit_length(v) > length_u:
                out.append((alpha, v))
    return out


def _insert_pareto(front: list[Degree], candidate: Degree) -> bool:
    # Keep only minimal consumed budgets per vertex: a smaller spend reaches
    # everything a bigger spend can.
    if any(existing <= candidate for existing in front):
        return False
    front[:] = [existing for existing in front if not candidate <= existing]
    front.append(candidate)
    return True


def _pareto_fronts(u: GroupElement, d: Degree) -> dict[GroupElement, list[Degree]]:
    """Each endpoint of an increasing chain from u within d, with its minimal chain degrees.

    Breadth-first search over (vertex, consumed degree) states, pruned to the
    Pareto-minimal consumed degrees at each vertex.  Every step spends at
    least (0,1) or (1,0) of budget, so the search terminates with endpoint
    lengths capped at l(u) + d.a + d.b.  A vertex is reachable within any
    e <= d exactly when some degree in its front is <= e.
    """
    table = _root_table(d)
    frontiers: dict[GroupElement, list[Degree]] = {u: [ZERO_DEGREE]}
    queue: deque[tuple[GroupElement, Degree]] = deque([(u, ZERO_DEGREE)])
    while queue:
        v, consumed = queue.popleft()
        for alpha, w in _increasing_steps(v, table, d.a - consumed.a, d.b - consumed.b):
            spent = Degree(consumed.a + alpha.a, consumed.b + alpha.b)
            if _insert_pareto(frontiers.setdefault(w, []), spent):
                queue.append((w, spent))
    return frontiers


def reachable_set(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """Endpoints of all increasing chains from u of degree at most d."""
    return frozenset(_pareto_fronts(u, d))


_Token = TypeVar("_Token")


def _walk(
    u: GroupElement, d: Degree, token: Callable[[Root, GroupElement], _Token]
) -> Iterator[tuple[tuple[_Token, ...], int, int]]:
    """Every increasing chain from u of degree at most d, depth-first: (steps, a, b).

    ``steps`` holds ``token(alpha, w)`` for each edge of the chain, of root
    ``alpha`` to ``w``, in order; (a, b) is the chain degree.  Siblings follow
    the root table's order, so the walk is deterministic.

    Each vertex's increasing steps within all of d, with their tokens, are found
    once, on its first visit, and kept for the rest of the walk: every chain through
    a step holds its one token, and every visit filters the steps by the degree still
    unspent.  The cache holds one entry per vertex the walk reaches, at most
    2(l(u) + d.a + d.b) + 1 of them, each at most the size of the root table.  A
    pending sibling on the stack holds its parent's steps and its own step, and is
    joined into its chain only when popped, so siblings share one prefix.
    """
    table = _root_table(d)
    steps_from: dict[GroupElement, list[tuple[int, int, GroupElement, tuple[_Token]]]] = {}
    stack = [(u, (), (), 0, 0)]
    while stack:
        v, parent_steps, step, a, b = stack.pop()
        steps = parent_steps + step
        yield steps, a, b
        found = steps_from.get(v)
        if found is None:
            found = steps_from[v] = [
                (alpha.a, alpha.b, w, (token(alpha, w),))
                for alpha, w in _increasing_steps(v, table, d.a, d.b)
            ]
        room_a = d.a - a
        room_b = d.b - b
        for step_a, step_b, w, step in reversed(found):
            if step_a <= room_a and step_b <= room_b:
                stack.append((w, steps, step, a + step_a, b + step_b))


def enumerate_chains(u: GroupElement, d: Degree) -> list[Chain]:
    """Every increasing chain from u of degree at most d, the empty one included.

    Distinct chains to the same endpoint are all listed.  Ordering is
    depth-first with roots in canonical order, so output is deterministic.
    """
    # _walk checked each step when it first found it; skip the whole-prefix re-walk.
    return [tuple.__new__(Chain, (u, steps)) for steps, _, _ in _walk(u, d, ChainStep)]


def chain_lines(u: GroupElement, d: Degree) -> Iterator[str]:
    """One line per chain of enumerate_chains(u, d), in order, built lazily.

    A line is the start, then `` -[a,b]-> <target>`` per step, then two spaces
    and ``degree a,b``: ``sr(0) -[2,1]-> r(-1)  degree 2,1``.
    """
    start = format_element(u)
    walk = _walk(u, d, lambda alpha, w: f" -[{alpha.a},{alpha.b}]-> {format_element(w)}")
    for steps, a, b in walk:
        yield f"{start}{''.join(steps)}  degree {a},{b}"


def chain_parity_witness(chain: Chain) -> tuple[int, int]:
    """Halved componentwise gap between the chain degree and phi(u^-1 v); see halved_gap."""
    lower = phi(mul(inverse(chain.start), chain.end))
    return halved_gap(chain.degree(), lower, f"chain {chain.start!r} to {chain.end!r}")


def graph_slice(
    max_length: int,
) -> tuple[list[GroupElement], list[tuple[GroupElement, Root, GroupElement]]]:
    """Vertices of length <= max_length and the increasing edges among them."""
    vertices = sort_elements(enumerate_up_to_length(max_length))
    bound = max(max_length, 0)
    table = _root_table(Degree(bound, bound))
    edges = [
        (u, alpha, v)
        for u in vertices
        for alpha, v in _increasing_steps(u, table, bound, bound)
        if explicit_length(v) <= max_length
    ]
    return vertices, edges


def to_dot(max_length: int) -> Iterator[str]:
    """Graphviz rendering of the moment-graph slice, line by line; equal lengths share a rank."""
    vertices, edges = graph_slice(max_length)
    quoted = {v: f'"{format_element(v)}"' for v in vertices}
    yield "digraph moment_graph {"
    yield "  rankdir=BT;"
    for _, rank in groupby(vertices, key=explicit_length):
        yield "  { rank=same; " + "; ".join(quoted[v] for v in rank) + "; }"
    for u, alpha, v in edges:
        yield f'  {quoted[u]} -> {quoted[v]} [label="{alpha.a},{alpha.b}"];'
    yield "}"
