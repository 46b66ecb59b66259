"""Roots, moment-graph edges, and increasing-chain search.

The moment graph has a vertex for every group element and, for each root
(a, b), an edge u -> u * s_(a,b) of degree (a, b).  Chains walk edges while
strictly increasing Coxeter length; their degree is the sum of edge degrees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .dihedral import (
    Degree,
    GroupElement,
    ZERO_DEGREE,
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


@dataclass(frozen=True)
class Root:
    """Pair (a, b) of non-negative counts with |a - b| = 1; labels an edge."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0 or abs(self.a - self.b) != 1:
            raise ValueError(f"not a root: ({self.a}, {self.b})")

    def to_degree(self) -> Degree:
        return Degree(self.a, self.b)


class ChainStep(NamedTuple):
    root: Root
    target: GroupElement


@dataclass(frozen=True)
class Chain:
    """Length-increasing path in the moment graph: start vertex plus labeled steps.

    Validated on construction: every step must be a genuine edge and must
    strictly increase Coxeter length.
    """

    start: GroupElement
    steps: tuple[ChainStep, ...] = ()

    def __post_init__(self) -> None:
        v = self.start
        for step in self.steps:
            if step.target != mul(v, root_reflection(step.root)):
                raise ValueError(
                    f"{step.target!r} is not the ({step.root.a},{step.root.b})-neighbor of {v!r}"
                )
            if explicit_length(step.target) <= explicit_length(v):
                raise ValueError(f"chain does not increase in length at {step.target!r}")
            v = step.target

    @property
    def end(self) -> GroupElement:
        return self.steps[-1].target if self.steps else self.start

    def degree(self) -> Degree:
        total = ZERO_DEGREE
        for step in self.steps:
            total = total + step.root.to_degree()
        return total


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
    found = []
    for a in range(limit.a + 1):
        for b in (a - 1, a + 1):
            if 0 <= b <= limit.b:
                found.append(Root(a, b))
    found.sort(key=lambda alpha: (alpha.a + alpha.b, alpha.a))
    return found


def is_edge(u: GroupElement, v: GroupElement, alpha: Root) -> bool:
    """Whether u -> v is the moment-graph edge labeled by alpha."""
    return v == mul(u, root_reflection(alpha))


def successors(u: GroupElement, remaining: Degree) -> list[tuple[Root, GroupElement]]:
    """Length-increasing steps from u whose root degree fits the remaining budget."""
    length_u = explicit_length(u)
    out = []
    for alpha in roots_bounded(remaining):
        v = mul(u, root_reflection(alpha))
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


def reachable_set(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """Endpoints of all increasing chains from u of degree at most d.

    Breadth-first search over (vertex, consumed degree) states, pruned to the
    Pareto-minimal consumed degrees at each vertex.  Every step spends at
    least (0,1) or (1,0) of budget, so the search terminates with endpoint
    lengths capped at l(u) + d.a + d.b.
    """
    frontiers: dict[GroupElement, list[Degree]] = {u: [ZERO_DEGREE]}
    queue: deque[tuple[GroupElement, Degree]] = deque([(u, ZERO_DEGREE)])
    while queue:
        v, consumed = queue.popleft()
        remaining = Degree(d.a - consumed.a, d.b - consumed.b)
        for alpha, w in successors(v, remaining):
            spent = consumed + alpha.to_degree()
            if _insert_pareto(frontiers.setdefault(w, []), spent):
                queue.append((w, spent))
    return frozenset(frontiers)


def enumerate_chains(u: GroupElement, d: Degree) -> list[Chain]:
    """Every increasing chain from u of degree at most d, the empty one included.

    Distinct chains to the same endpoint are all listed.  Ordering is
    depth-first with roots in canonical order, so output is deterministic.
    """
    chains: list[Chain] = []
    steps: list[ChainStep] = []

    def extend(v: GroupElement, consumed: Degree) -> None:
        chains.append(Chain(u, tuple(steps)))
        remaining = Degree(d.a - consumed.a, d.b - consumed.b)
        for alpha, w in successors(v, remaining):
            steps.append(ChainStep(alpha, w))
            extend(w, consumed + alpha.to_degree())
            steps.pop()

    extend(u, ZERO_DEGREE)
    return chains


def chain_parity_witness(chain: Chain) -> tuple[int, int]:
    """Halved componentwise gap between the chain degree and phi(u^-1 v); see halved_gap."""
    lower = phi(mul(inverse(chain.start), chain.end))
    return halved_gap(chain.degree(), lower, f"chain {chain.start!r} to {chain.end!r}")


def has_increasing_chain(u: GroupElement, v: GroupElement) -> bool:
    """Whether some increasing chain of any degree connects u to v.

    Budget (l(u)+l(v), l(u)+l(v)) suffices: a connecting chain, when one
    exists, can always be routed directly or through a length-decreasing
    generator neighbor of v, and such a chain fits this budget.
    """
    budget = explicit_length(u) + explicit_length(v)
    return v in reachable_set(u, Degree(budget, budget))


def format_chain(chain: Chain) -> str:
    parts = [format_element(chain.start)]
    for step in chain.steps:
        parts.append(f"-[{step.root.a},{step.root.b}]->")
        parts.append(format_element(step.target))
    total = chain.degree()
    return " ".join(parts) + f"  degree {total.a},{total.b}"


def graph_slice(
    max_length: int,
) -> tuple[list[GroupElement], list[tuple[GroupElement, Root, GroupElement]]]:
    """Vertices of length <= max_length and the increasing edges among them."""
    vertices = sort_elements(enumerate_up_to_length(max_length))
    bound = max(max_length, 0)
    edges = []
    for u in vertices:
        for alpha in roots_bounded(Degree(bound, bound)):
            v = mul(u, root_reflection(alpha))
            if explicit_length(u) < explicit_length(v) <= max_length:
                edges.append((u, alpha, v))
    return vertices, edges


def to_dot(max_length: int) -> str:
    """Graphviz rendering of the moment-graph slice; equal lengths share a rank."""
    vertices, edges = graph_slice(max_length)
    lines = ["digraph moment_graph {", "  rankdir=BT;"]
    by_length: dict[int, list[GroupElement]] = {}
    for v in vertices:
        by_length.setdefault(explicit_length(v), []).append(v)
    for length in sorted(by_length):
        names = "; ".join(f'"{format_element(v)}"' for v in by_length[length])
        lines.append("  { rank=same; " + names + "; }")
    for u, alpha, v in edges:
        lines.append(
            f'  "{format_element(u)}" -> "{format_element(v)}" '
            f'[label="{alpha.a},{alpha.b}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
