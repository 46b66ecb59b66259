"""Roots, moment-graph edges, and increasing-chain search.

The moment graph has a vertex for every group element and, for each root
(a, b), an edge u -> u * s_(a,b) of degree (a, b).  Chains walk edges while
strictly increasing Coxeter length; their degree is the sum of edge degrees.

Every search here builds its root table, each root of ``roots_bounded`` with its
reflection, once per call.  Chains come from one depth-first walk, ``_walk``, over
states (vertex, spent degree): each state's fitting steps are found and planned
once, and a chain is its steps' tokens, each built once per planned step and shared,
with its state's one label (see there).  From s0 at (9, 9) the 10,159 chains end in
35 vertices and 99 states.  ``chain_lines`` streams the printed chains,
``enumerate_chains`` lists them and ``dcn chains --json`` streams its records from
it, in one order; ``to_dot`` yields lines.
"""

from collections import deque, namedtuple
from collections.abc import Callable, Iterator
from itertools import groupby

from .dihedral import (
    Degree,
    GroupElement,
    ZERO_DEGREE,
    _Counts,
    _Value,
    enumerate_up_to_length,
    explicit_length,
    format_element,
    mul,
    phi,
    sr,
)

__all__ = [
    "Chain", "ChainStep", "Root", "chain_lines", "enumerate_chains", "graph_slice",
    "reachable_set", "root_of_reflection", "root_reflection", "roots_bounded", "to_dot",
]


class Root(_Counts):
    """Pair (a, b) of non-negative counts with |a - b| = 1; labels an edge."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Root":
        if a < 0 or b < 0 or abs(a - b) != 1:
            raise ValueError(f"not a root: ({a}, {b})")
        return tuple.__new__(cls, (a, b))

    def to_degree(self) -> Degree:
        return Degree(self.a, self.b)


class ChainStep(_Value, namedtuple("ChainStep", ["root", "target"])):
    """One edge of a chain: its ``Root`` and the ``GroupElement`` it reaches."""

    __slots__ = ()


class Chain(_Value, namedtuple("Chain", ["start", "steps"])):
    """Length-increasing path in the moment graph: start vertex plus labeled steps.

    Validated on construction: every step must be a genuine edge and must
    strictly increase Coxeter length.
    """

    __slots__ = ()

    def __new__(cls, start: GroupElement, steps: tuple[ChainStep, ...] = ()) -> "Chain":
        steps = tuple(steps)
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
        if consumed not in frontiers[v]:
            continue  # a smaller spend replaced it in the front and queued its own state
        for alpha, w in _increasing_steps(v, table, d.a - consumed.a, d.b - consumed.b):
            spent = Degree(consumed.a + alpha.a, consumed.b + alpha.b)
            if _insert_pareto(frontiers.setdefault(w, []), spent):
                queue.append((w, spent))
    return frontiers


def reachable_set(u: GroupElement, d: Degree) -> frozenset[GroupElement]:
    """Endpoints of all increasing chains from u of degree at most d."""
    return frozenset(_pareto_fronts(u, d))


def _walk(
    u: GroupElement,
    d: Degree,
    token: Callable[[Root, GroupElement], object],
    label: Callable[[int, int], object],
    empty,
) -> Iterator[tuple]:
    """Every increasing chain from u of degree at most d, depth-first: (steps, label).

    ``steps`` is ``empty`` plus ``token(alpha, w)`` for each edge of the chain, of
    root ``alpha`` to ``w``, in order, and ``label`` is ``label(a, b)`` of the chain
    degree (a, b).  Siblings follow the root table's order, so the walk is
    deterministic.

    The walk is over states (w, a, b): a chain's end and the degree it spent.  The
    first time a state is popped, its plan is built: the increasing steps that fit in
    the degree still unspent, in stack order, each with its token and its child
    state; a later pop pushes that plan as it is.  A state is built once per walk,
    with its label, so every chain through a planned step holds the step's one token
    and every chain ending in a state the state's one label.  The walk reaches at most
    2(l(u) + d.a + d.b) + 1 vertices, each in at most (d.a + 1)(d.b + 1) states: from
    s0 at (9, 9), 35 vertices and 99 states for 10,159 chains.  A pending sibling on
    the stack holds its parent's steps and its own (token, state), and is joined into
    its chain only when popped, so siblings share one prefix.
    """
    table = _root_table(d)
    states: dict[tuple[GroupElement, int, int], list] = {}
    # A state is [label, plan, w, a, b]; its plan is None until it is first popped.
    steps, state = empty, [label(0, 0), None, u, 0, 0]
    stack: list[tuple] = []
    while True:
        yield steps, state[0]
        plan = state[1]
        if plan is None:
            _, _, v, a, b = state
            plan = state[1] = []
            for alpha, w in reversed(_increasing_steps(v, table, d.a - a, d.b - b)):
                key = (w, a + alpha.a, b + alpha.b)
                child = states.get(key)
                if child is None:
                    child = states[key] = [label(key[1], key[2]), None, *key]
                plan.append((token(alpha, w), child))
        for child in plan:
            stack.append((steps, child))
        if not stack:
            return
        parent_steps, (step, state) = stack.pop()
        steps = parent_steps + step


def enumerate_chains(u: GroupElement, d: Degree) -> list[Chain]:
    """Every increasing chain from u of degree at most d, the empty one included.

    Distinct chains to the same endpoint are all listed.  Ordering is
    depth-first with roots in canonical order, so output is deterministic.
    """
    # _walk checked each step when it first found it; skip the whole-prefix re-walk.
    walk = _walk(u, d, lambda alpha, w: (ChainStep(alpha, w),), lambda a, b: None, ())
    return [tuple.__new__(Chain, (u, steps)) for steps, _ in walk]


def chain_lines(u: GroupElement, d: Degree) -> Iterator[str]:
    """One line per chain of enumerate_chains(u, d), in order, built lazily.

    A line is the start, then `` -[a,b]-> <target>`` per step, then two spaces
    and ``degree a,b``: ``sr(0) -[2,1]-> r(-1)  degree 2,1``.
    """
    walk = _walk(
        u,
        d,
        lambda alpha, w: f" -[{alpha.a},{alpha.b}]-> {format_element(w)}",
        lambda a, b: f"  degree {a},{b}",
        format_element(u),
    )
    for steps, label in walk:
        yield steps + label


def graph_slice(
    max_length: int,
) -> tuple[list[GroupElement], list[tuple[GroupElement, Root, GroupElement]]]:
    """Vertices of length <= max_length and the increasing edges among them.

    The vertices are ``enumerate_up_to_length(max_length)``, in printed order.  The
    edges from u go to every v of the other type with l(u) < l(v) <= max_length, since
    v = u * sr(m) for m = k_u + k_v; the root is that reflection's, and u's edges follow
    the root table's order.  No product is taken.
    """
    vertices = enumerate_up_to_length(max_length)
    bound = max(max_length, 0)
    # Each reflection sr(m) of the table, by m: its place in the table and its root.
    ranks = {g.k: (i, alpha) for i, (alpha, g) in enumerate(_root_table(Degree(bound, bound)))}
    edges = []
    for u in vertices:
        # Past index 2 l(u), lengths run l(u) + 1, l(u) + 1, l(u) + 2, l(u) + 2, ...,
        # so every fourth vertex from the first two is of the other type.
        start = 2 * explicit_length(u) + 1
        ranked = sorted((ranks[u.k + v.k], v) for v in vertices[start::4] + vertices[start + 1::4])
        edges += [(u, alpha, v) for (_, alpha), v in ranked]
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
