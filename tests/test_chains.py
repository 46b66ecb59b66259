"""The depth-first chain walk against the recursive enumeration it replaced.

``enumerate_chains`` and ``chain_lines`` come from one walk that checks each
step as it adds it.  The reference here is the earlier recursive enumeration:
every chain is a fully validated ``Chain``, extended one ``reference.successors``
step at a time and listed depth-first, with ``reference.format_chain`` as its
printed form.  ``reference.successors`` scans ``roots_bounded`` and multiplies
out each edge, so it shares no step generator with the walk.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import dcn
from dcn import (
    Chain,
    ChainStep,
    Degree,
    ZERO_DEGREE,
    chain_lines,
    degrees_up_to,
    enumerate_chains,
    enumerate_up_to_length,
    format_element,
    parse_element,
    sort_elements,
    sr,
)
from dcn.cli import main
from reference import format_chain, successors

SMALL_GRID = [
    (u, d)
    for u in sort_elements(enumerate_up_to_length(4))
    for d in degrees_up_to(Degree(4, 4))
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
            extend(w, consumed + alpha.to_degree())
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
    assert chain.degree() == sum((s.root.to_degree() for s in chain.steps), ZERO_DEGREE)
    assert hash(chain) == hash(Chain(chain.start, chain.steps))


# -- `dcn chains --json`, pinned against the reference enumeration -------------------

def _reference_json(u_text, a, b):
    u = parse_element(u_text)
    result = []
    for chain in reference_chains(u, Degree(a, b)):
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
    echo = {"command": "chains", "u": format_element(u), "d": {"a": a, "b": b}}
    return json.dumps({"input": echo, "result": result}, indent=2) + "\n"


@pytest.mark.parametrize(
    "u_text, a, b",
    [("1", 0, 0), ("1", 1, 0), ("s0", 2, 1), ("s1", 2, 2), ("r(-2)", 3, 2), ("sr(3)", 1, 3)],
)
def test_chains_json_matches_reference(u_text, a, b, capsys):
    assert main(["chains", "--u", u_text, "--d", f"{a},{b}", "--json"]) == 0
    assert capsys.readouterr().out == _reference_json(u_text, a, b)


# -- streaming ---------------------------------------------------------------------

def test_chains_stream_before_the_walk_ends():
    # d = (40, 40) has far too many chains to list: the first line must come
    # out, and the process must stop once the pipe closes, long before the
    # walk could end.  A watchdog kills the process if either stalls.
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    env.pop("DCN_COLOR", None)
    entry = "import sys; from dcn.cli import main; sys.exit(main())"
    with subprocess.Popen(
        [sys.executable, "-c", entry, "chains", "--u", "s0", "--d", "40,40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        watchdog = threading.Timer(5, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=5)
        finally:
            watchdog.cancel()
    assert proc.returncode != -signal.SIGKILL, "killed after 5 s: output did not stream"
    assert first == b"sr(0)  degree 0,0\n"
    assert err == b""
    assert proc.returncode == 1
