"""The depth-first chain walk against the recursive enumeration it replaced.

``enumerate_chains`` and ``chain_lines`` come from one walk that checks each
step as it adds it.  The reference here is the earlier recursive enumeration:
every chain is a fully validated ``Chain``, extended one ``reference.successors``
step at a time and listed depth-first, with ``reference.format_chain`` as its
printed form.  ``reference.successors`` scans ``roots_bounded`` and multiplies
out each edge, so it shares no step generator with the walk.
"""

import hashlib
import io
import itertools
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import dcn.json_writer as json_writer
import dcn.moment_graph as moment_graph
from dcn import (
    COEFFICIENT_BOUND,
    Chain,
    ChainStep,
    Degree,
    GroupElement,
    Root,
    ZERO_DEGREE,
    chain_lines,
    enumerate_chains,
    enumerate_up_to_length,
    format_element,
    parse_element,
    sort_elements,
    sr,
)
from dcn.cli import main
from calls import Calls
from launch import Child
from reference import degrees_up_to, format_chain, mirror, parse_chain_line, successors

SMALL_GRID = [
    (u, d)
    for u in sort_elements(enumerate_up_to_length(4))
    for d in degrees_up_to(Degree(4, 4))
]

# Lopsided budgets past (4,4): the walk reaches a vertex again with a different
# degree left, so each of its states must plan the vertex's steps in its own room.
ASYMMETRIC_GRID = [
    (u, d)
    for u in sort_elements(enumerate_up_to_length(2))
    for d in (Degree(7, 2), Degree(2, 7), Degree(6, 5), Degree(5, 6))
]


def reference_chains(u, d):
    """The recursive enumeration: each chain re-validated in full as it is built."""
    chains = []
    steps = []

    def extend(v, consumed):
        chains.append(Chain(u, tuple(steps)))
        remaining = Degree(d.a - consumed.a, d.b - consumed.b)
        for alpha, w in successors(v, remaining):
            steps.append(ChainStep(alpha, w))
            extend(w, consumed + Degree(*alpha))
            steps.pop()

    extend(u, ZERO_DEGREE)
    return chains


def _case_id(case):
    u, d = case
    return f"{format_element(u)}-{d.a},{d.b}"


@pytest.fixture(scope="module")
def reference():
    return {case: reference_chains(*case) for case in SMALL_GRID}


def test_grid_is_not_trivial(reference):
    # 9 base points by 25 budgets; the largest cases have hundreds of chains.
    assert len(reference) == 225
    assert max(len(chains) for chains in reference.values()) > 100


def test_enumerate_chains_equals_reference_in_order(reference):
    for (u, d), expected in reference.items():
        assert enumerate_chains(u, d) == expected, _case_id((u, d))


def test_chain_lines_format_reference_chains_in_order(reference):
    for (u, d), expected in reference.items():
        assert list(chain_lines(u, d)) == [format_chain(c) for c in expected], _case_id((u, d))


@pytest.mark.parametrize("case", ASYMMETRIC_GRID, ids=_case_id)
def test_walk_equals_reference_at_asymmetric_budgets(case):
    u, d = case
    expected = reference_chains(u, d)
    assert enumerate_chains(u, d) == expected
    assert list(chain_lines(u, d)) == [format_chain(c) for c in expected]


def test_asymmetric_grid_revisits_vertices_with_other_room():
    # Some endpoint is reached by chains of different degrees in every
    # (6,5) and (5,6) case, so its steps are filtered under different room.
    for u, d in ASYMMETRIC_GRID:
        if d.a + d.b == 11:
            chains = reference_chains(u, d)
            assert len({(c.end, c.degree()) for c in chains}) > len({c.end for c in chains})


@pytest.mark.parametrize(
    "walk",
    [
        chain_lines,
        enumerate_chains,
        # `dcn chains --json`'s records, as its writer streams them at the top level.
        pytest.param(lambda u, d: json_writer._chain_records(u, d, "    "), id="_chain_records"),
    ],
)
def test_walk_plans_each_state_once(walk):
    u, d = sr(0), Degree(9, 9)
    chains = enumerate_chains(u, d)
    states = {(chain.end, chain.degree()) for chain in chains}
    with Calls() as calls:
        assert sum(1 for _ in walk(u, d)) == 10_159
    walked = calls[moment_graph._walk]
    # One entry and a resume per chain after the first, which ends the walk.
    assert (walked.entries, walked.resumes, walked.values[-1]) == (1, 10_159, None)
    (_, _, make_token, make_label, _), = walked.args
    assert calls[moment_graph.roots_bounded].args == [(d,)]
    # Every state's steps are found once, on its first pop, in the room it has left:
    # 99 states on 35 vertices.
    increasing = calls[moment_graph._increasing_steps]
    scanned = Counter((v, room_a, room_b) for v, _, room_a, room_b in increasing.args)
    assert set(scanned) == {(w, d.a - e.a, d.b - e.b) for w, e in states}
    assert len(scanned) == sum(scanned.values()) == 99
    assert len({v for v, _, _ in scanned}) == 35
    # One token per planned step and one label per state.
    made, labels = calls[make_token].values, calls[make_label].values
    assert len(made) == sum(map(len, increasing.values)) == 322
    assert len(labels) == len(states) == 99
    walked_steps, walked_labels = zip(*walked.values[:-1])
    # Every chain holds its state's label object.
    by_id = {id(label): label for label in labels}
    assert all(by_id.get(id(label)) is label for label in walked_labels)
    if walk is chain_lines:
        # The text of the chain (t1, t2) extends that of the chain (t1,).
        assert walked_steps[2].startswith(walked_steps[1])
    else:
        # Tuple steps hold the very objects of the tokens: the first step's
        # token is shared by the chains (t1,) and (t1, t2).
        by_id = {id(token[0]): token[0] for token in made}
        assert all(by_id.get(id(step)) is step for steps in walked_steps for step in steps)
        assert walked_steps[2][0] is walked_steps[1][0]


def test_first_chunk_at_a_wide_budget_plans_only_the_states_it_reaches():
    # The first 1,024 chains from s0 at (100,100) pop 201 states.  Each plans only
    # the steps that fit in its own room, one token per planned step: a token per
    # step within all of d, kept per vertex, would make 25,050.
    with Calls() as calls:
        lines = chain_lines(sr(0), Degree(100, 100))
        assert sum(1 for _ in itertools.islice(lines, 1024)) == 1024
    (_, _, make_token, _, _), = calls[moment_graph._walk].args
    assert calls[moment_graph._increasing_steps].entries == 201
    assert len(calls[make_token].values) == 13_400


def test_walked_chains_survive_full_validation(reference):
    for u, d in reference:
        for chain in enumerate_chains(u, d):
            assert Chain(chain.start, chain.steps) == chain


@pytest.mark.parametrize("u", [sr(0), sr(1)], ids=format_element)
def test_chain_counts_at_9_9(u):
    d = Degree(9, 9)
    assert len(enumerate_chains(u, d)) == 10_159
    assert sum(1 for _ in chain_lines(u, d)) == 10_159


def test_walked_chains_keep_chain_api():
    chain = enumerate_chains(sr(0), Degree(5, 3))[-1]
    assert isinstance(chain, Chain)
    assert chain.end == chain.steps[-1].target
    assert chain.degree() == sum((Degree(*s.root) for s in chain.steps), ZERO_DEGREE)
    assert hash(chain) == hash(Chain(chain.start, chain.steps))


# -- printed chains parse back ---------------------------------------------------------

def test_parse_chain_line_examples():
    line = "sr(0) -[2,1]-> r(-1)  degree 2,1"
    step = ChainStep(Root(2, 1), parse_element("r(-1)"))
    assert parse_chain_line(line) == (Chain(sr(0), (step,)), Degree(2, 1))
    assert parse_chain_line("r(3)  degree 0,0") == (Chain(parse_element("r(3)")), ZERO_DEGREE)
    # Chain validates the steps it is given: r(5) is not an edge away from sr(0).
    with pytest.raises(ValueError):
        parse_chain_line("sr(0) -[1,0]-> r(5)  degree 1,0")


@pytest.mark.parametrize("u", [sr(0), sr(1)], ids=format_element)
def test_printed_chains_parse_back_in_order(u):
    d = Degree(9, 9)
    parsed = [parse_chain_line(line) for line in chain_lines(u, d)]
    assert [chain for chain, _ in parsed] == enumerate_chains(u, d)
    assert all(degree == chain.degree() for chain, degree in parsed)


# -- the generator relabeling ----------------------------------------------------------

def mirror_chain(chain):
    """The chain under s0 <-> s1: mirrored vertices, each root (a, b) -> (b, a)."""
    steps = tuple(ChainStep(Root(s.root.b, s.root.a), mirror(s.target)) for s in chain.steps)
    return Chain(mirror(chain.start), steps)


def assert_relabeling_commutes_with_chains(u, d):
    mirrored = Counter(mirror_chain(c) for c in enumerate_chains(u, d))
    assert mirrored == Counter(enumerate_chains(mirror(u), Degree(d.b, d.a))), _case_id((u, d))


def test_relabeling_commutes_with_chains():
    for u, d in SMALL_GRID:
        assert_relabeling_commutes_with_chains(u, d)


@given(
    st.builds(GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_relabeling_commutes_with_chains_at_full_range(u, a, b):
    assert_relabeling_commutes_with_chains(u, Degree(a, b))


# -- `dcn chains --json`, pinned against the reference enumeration -------------------

def _reference_records(chains):
    result = []
    for chain in chains:
        total = chain.degree()
        result.append(
            {
                "start": format_element(chain.start),
                "steps": [
                    {"root": {"a": s.root.a, "b": s.root.b}, "target": format_element(s.target)}
                    for s in chain.steps
                ],
                "degree": {"a": total.a, "b": total.b},
            }
        )
    return result


def _reference_json(u_text, a, b):
    u = parse_element(u_text)
    result = _reference_records(reference_chains(u, Degree(a, b)))
    echo = {"command": "chains", "u": format_element(u), "d": {"a": a, "b": b}}
    return json.dumps({"input": echo, "result": result}, indent=2) + "\n"


@given(
    st.builds(GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)),
    st.integers(0, 5),
    st.integers(0, 5),
)
# Within (5,5) no two chains reach one vertex with one total degree split two ways;
# from the identity at (6,6) some do, so a key on a + b alone shows there.
@example(GroupElement(False, 0), 6, 6)
# It checks answers, not time: a traced run is several times slower.
@settings(deadline=None)
def test_state_walk_equals_reference_at_full_range(u, a, b):
    # The walk keys its plans by (vertex, spent degree): a plan made for one chain
    # serves every later chain that reaches the same state, so a key that merged
    # two states, or split one, would change some chain here.
    d = Degree(a, b)
    expected = reference_chains(u, d)
    assert enumerate_chains(u, d) == expected
    assert list(chain_lines(u, d)) == [format_chain(c) for c in expected]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["chains", "--u", format_element(u), "--d", f"{a},{b}", "--json"])
    if any(abs(c.end.k) > COEFFICIENT_BOUND for c in expected):
        # An endpoint that would not parse again is refused before anything is written.
        assert (code, out.getvalue()) == (1, "") and "outside the supported range" in err.getvalue()
    else:
        assert (code, out.getvalue()) == (0, _reference_json(format_element(u), a, b))


@pytest.mark.parametrize(
    "u_text, a, b",
    [
        ("1", 0, 0), ("1", 1, 0), ("s0", 2, 1), ("s1", 2, 2), ("r(-2)", 3, 2), ("sr(3)", 1, 3),
        # ASYMMETRIC_GRID budgets: a vertex's shared step dicts serve chains with other room left.
        ("s0", 6, 5), ("1", 5, 6),
    ],
)
def test_chains_json_matches_reference(u_text, a, b, capsys):
    assert main(["chains", "--u", u_text, "--d", f"{a},{b}", "--json"]) == 0
    assert capsys.readouterr().out == _reference_json(u_text, a, b)


def test_chains_json_bytes_at_9_9(capsys):
    # 10,159 records through shared step dicts; larger than any stored replay.
    assert main(["chains", "--u", "s0", "--d", "9,9", "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == (
        10_713_765,
        "81cf5d7d62593e2272e43da9516a2c40718d3858c8a13f2c2fbdd7259fd0c554",
    )


# -- streaming ---------------------------------------------------------------------

def test_chains_stream_before_the_walk_ends():
    # d = (40, 40) has far too many chains to list: the first line must come
    # out, and the process must stop once the pipe closes, long before the
    # walk could end.  The launcher's watchdog kills the process if either stalls.
    with Child("chains", "--u", "s0", "--d", "40,40", timeout=5) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait()
        assert not proc.timed_out, "killed after 5 s: output did not stream"
    assert first == b"sr(0)  degree 0,0\n"
    assert err == b""
    assert proc.returncode == 1
