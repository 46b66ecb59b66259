"""Flag surface, output formats, exit codes, and determinism of the CLI."""

import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import dcn
import dcn.cli as cli
import dcn.json_writer as json_writer
from dcn import (
    COEFFICIENT_BOUND,
    Degree,
    DiffReport,
    GroupElement,
    Mismatch,
    chain_lines,
    curve_neighborhood,
    format_element,
    mul,
    parse_degree,
    parse_element,
    phi,
    r,
    sr,
)
from dcn.cli import main
from calls import Calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- element queries ---------------------------------------------------------------

def test_length(capsys):
    assert run_cli(capsys, "length", "sr(-3)") == (0, "7\n", "")


def test_word(capsys):
    assert run_cli(capsys, "word", "sr(2)") == (0, "s1 s0 s1\n", "")
    assert run_cli(capsys, "word", "1") == (0, "e\n", "")


def test_word_names_its_letters_only_for_json(capsys, monkeypatch):
    # The text form prints format_word's line; only the JSON form lists each letter.
    looked_up = []

    class CountedLetters(dict):
        def __getitem__(self, letter):
            looked_up.append(letter)
            return super().__getitem__(letter)

    monkeypatch.setattr(cli, "_LETTERS", CountedLetters(cli._LETTERS))
    assert run_cli(capsys, "word", "r(3)") == (0, "s0 s1 s0 s1 s0 s1\n", "")
    assert looked_up == []
    code, out, _ = run_cli(capsys, "word", "r(3)", "--json")
    assert (code, json.loads(out)["result"]) == (0, ["s0", "s1"] * 3)
    assert len(looked_up) == 6


def test_word_json_renders_each_distinct_letter_once(capsys):
    # A word of 2**20 letters holds two distinct ones; rendering each occurrence
    # through _text made `word 'r(524288)' --json` about three times slower.
    with Calls() as calls:
        code, out, _ = run_cli(capsys, "word", "r(1000)", "--json")
    assert (code, json.loads(out)["result"]) == (0, ["s0", "s1"] * 1000)
    rendered = [value for value, _ in calls[json_writer._text].args]
    assert (rendered.count("s0"), rendered.count("s1")) == (1, 1)


def test_word_at_the_letter_limit(capsys):
    half = cli.WORD_LETTER_LIMIT // 2
    code, out, _ = run_cli(capsys, "word", f"r({half})")
    assert code == 0
    assert out == "s0 s1 " * (half - 1) + "s0 s1\n"
    code, out, _ = run_cli(capsys, "word", f"r({half})", "--json")
    letters = json.loads(out)["result"]
    assert (code, len(letters), letters[:2]) == (0, cli.WORD_LETTER_LIMIT, ["s0", "s1"])


@pytest.mark.parametrize("element", [f"r({2**30})", f"sr({-(2**19)})"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_word_over_the_letter_limit_exits_1(capsys, element, json_flag):
    # r(2**30) has 2**31 letters, which would exhaust memory before printing;
    # sr(-2**19) has 2**20 + 1, one over the limit.
    code, out, err = run_cli(capsys, "word", element, *json_flag)
    assert (code, out) == (1, "")
    assert err.startswith("error: the reduced word of ")
    assert f"over the limit of {cli.WORD_LETTER_LIMIT}" in err


def test_phi(capsys):
    assert run_cli(capsys, "phi", "sr(3)") == (0, "2,3\n", "")


def test_mul(capsys):
    assert run_cli(capsys, "mul", "sr(2)", "r(3)") == (0, "sr(5)\n", "")


@pytest.mark.parametrize(
    ("left", "right", "product"),
    [
        (f"r({2**30})", f"r({2**30})", f"r({2**31})"),
        (f"r({-(2**30)})", f"r({-(2**30)})", f"r({-(2**31)})"),
        ("s0", f"r({2**31})", f"sr({2**31})"),
        (f"sr({-(2**31)})", "r(0)", f"sr({-(2**31)})"),
    ],
)
def test_mul_at_the_coefficient_bound_round_trips(capsys, left, right, product):
    assert run_cli(capsys, "mul", left, right) == (0, product + "\n", "")
    assert run_cli(capsys, "length", product)[0] == 0
    code, out, _ = run_cli(capsys, "mul", left, right, "--json")
    assert (code, json.loads(out)["result"]) == (0, product)


@pytest.mark.parametrize(
    ("left", "right", "product"),
    [
        (f"r({2**31})", f"r({2**31})", f"r({2**32})"),
        (f"r({2**31})", "r(1)", f"r({2**31 + 1})"),
        (f"sr({-(2**31)})", "r(-1)", f"sr({-(2**31) - 1})"),
        (f"sr({2**31})", f"sr({-(2**31)})", f"r({-(2**32)})"),
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_mul_past_the_coefficient_bound_exits_1(capsys, left, right, product, json_flag):
    # A printed product must parse again: dcn length rejects |k| > 2**31.
    assert run_cli(capsys, "length", product)[0] == 1
    code, out, err = run_cli(capsys, "mul", left, right, *json_flag)
    assert (code, out) == (1, "")
    assert err == f"error: product {product} outside the supported range |k| <= 2**31\n"


PAST_THE_BOUND = [
    (f"r({2**31})", "1,1", f"r({2**31 + 1})"),
    (f"r({-(2**31)})", "1,1", f"r({-(2**31) - 1})"),
    (f"r({-(2**31)})", "0,1", f"sr({2**31 + 1})"),
    (f"sr({-(2**31)})", "1,1", f"sr({-(2**31) - 1})"),
]


@pytest.mark.parametrize(("u", "d", "element"), PAST_THE_BOUND)
@pytest.mark.parametrize("method", ["closed", "oracle", "both"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_gamma_past_the_coefficient_bound_exits_1(capsys, u, d, element, method, json_flag):
    # Every printed element must parse again, as a printed product must.
    assert run_cli(capsys, "length", element)[0] == 1
    code, out, err = run_cli(capsys, "gamma", "--u", u, "--d", d, "--method", method, *json_flag)
    assert (code, out) == (1, "")
    assert err == f"error: element {element} outside the supported range |k| <= 2**31\n"


@pytest.mark.parametrize(("u", "d", "element"), PAST_THE_BOUND)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_chains_past_the_coefficient_bound_exits_1(capsys, u, d, element, json_flag):
    code, out, err = run_cli(capsys, "chains", "--u", u, "--d", d, *json_flag)
    assert (code, out) == (1, "")
    assert err == f"error: endpoint {element} outside the supported range |k| <= 2**31\n"


def test_gamma_and_chains_at_the_coefficient_bound_round_trip(capsys):
    u = f"r({2**31 - 1})"
    assert run_cli(capsys, "gamma", "--u", u, "--d", "1,1") == (0, f"{{r({2**31})}}\n", "")
    assert run_cli(capsys, "length", f"r({2**31})")[0] == 0
    code, out, _ = run_cli(capsys, "chains", "--u", u, "--d", "1,1")
    last = f"{u} -[1,0]-> sr({1 - 2**31}) -[0,1]-> r({2**31})  degree 1,1"
    assert (code, out.splitlines()[-1]) == (0, last)


@pytest.mark.parametrize(
    ("element", "counts"),
    [(f"sr({2**31})", f"{2**31 - 1},{2**31}"), (f"r({-(2**31)})", f"{2**31},{2**31}")],
)
def test_phi_at_the_coefficient_bound_round_trips(capsys, element, counts):
    assert run_cli(capsys, "phi", element) == (0, counts + "\n", "")
    assert run_cli(capsys, "gamma", "--u", "1", "--d", counts)[0] == 0


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_phi_past_the_coefficient_bound_exits_1(capsys, json_flag):
    # phi(sr(k)) = (|k| + 1, |k|) for k <= 0, so sr(-2**31) alone counts past the bound.
    counts = f"{2**31 + 1},{2**31}"
    assert run_cli(capsys, "gamma", "--u", "1", "--d", counts)[0] == 1
    code, out, err = run_cli(capsys, "phi", f"sr({-(2**31)})", *json_flag)
    assert (code, out) == (1, "")
    assert err == f"error: letter counts {counts} outside the supported range |k| <= 2**31\n"


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_round_trips(argv, expected, printable, parse):
    # Either a refusal that writes nothing, or text that parses back to ``expected``.
    code, out, err = _quiet_main(*argv)
    if not printable:
        assert (code, out) == (1, "") and err.startswith("error: "), argv
    else:
        assert (code, err) == (0, ""), argv
        assert parse(out.removesuffix("\n")) == expected, argv


def _parse_elements(text):
    return frozenset(parse_element(g) for g in text.strip("{}").split(", "))


def _fits(*numbers):
    return all(abs(n) <= COEFFICIENT_BOUND for n in numbers)


wide_elements = st.builds(
    GroupElement, st.booleans(), st.integers(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)
)


@given(wide_elements, wide_elements, st.integers(0, 3), st.integers(0, 3))
@example(sr(-(2**31)), r(0), 0, 0)
def test_printed_answers_parse_back(g, h, a, b):
    counts = phi(g)
    _assert_round_trips(["phi", format_element(g)], counts, _fits(*counts), parse_degree)
    gh = mul(g, h)
    _assert_round_trips(
        ["mul", format_element(g), format_element(h)], gh, _fits(gh.k), parse_element
    )
    gamma = curve_neighborhood(g, Degree(a, b))
    _assert_round_trips(
        ["gamma", "--u", format_element(g), "--d", f"{a},{b}"],
        gamma,
        _fits(*(v.k for v in gamma)),
        _parse_elements,
    )


def test_library_mul_stays_exact_past_the_bound():
    assert dcn.mul(r(2**31), r(2**31)) == r(2**32)


def test_aliases(capsys):
    assert run_cli(capsys, "length", "s0") == (0, "1\n", "")
    assert run_cli(capsys, "length", "s1") == (0, "1\n", "")
    assert run_cli(capsys, "length", "1") == (0, "0\n", "")


# -- neighborhoods -------------------------------------------------------------------

def test_gamma_identity_2_2(capsys):
    code, out, err = run_cli(capsys, "gamma", "--u", "1", "--d", "2,2")
    assert (code, err) == (0, "")
    assert out == "{r(-2), r(2)}\n"


def test_gamma_zero_degree(capsys):
    assert run_cli(capsys, "gamma", "--u", "s0", "--d", "0,0") == (0, "{sr(0)}\n", "")


def test_gamma_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--u", "1", "--d", "2,2", "--method", "oracle")
    assert code == 0
    assert out == "{r(-2), r(2)}\n"


def test_gamma_both_agree(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--u", "s0", "--d", "2,3", "--method", "both")
    assert code == 0
    assert out == "closed: {r(3)}\noracle: {r(3)}\n"


@pytest.mark.parametrize(
    "u, d",
    [
        # At the coefficient bound: the answers reach |k| = 2**31.
        (f"r({2**31 - 1})", "1,1"), (f"r({1 - 2**31})", "1,1"),
        (f"sr({2**31 - 1})", "1,1"), (f"sr({1 - 2**31})", "1,1"),
        # Once per row of the closed form's table.
        ("1", "1,1"), ("r(2)", "1,3"), ("sr(2)", "3,1"), ("r(-2)", "3,1"), ("sr(0)", "1,3"),
        ("1", "2,2"), ("1", "2,3"), ("1", "3,2"),
    ],
)
def test_gamma_both_routes_agree_at_the_bound_and_on_each_table_row(capsys, u, d):
    code, out, err = run_cli(capsys, "gamma", "--u", u, "--d", d, "--method", "both")
    assert (code, err) == (0, "")
    closed, oracle = out.splitlines()
    assert closed.startswith("closed: {r") or closed.startswith("closed: {sr")
    assert closed.replace("closed", "oracle", 1) == oracle


@pytest.mark.parametrize("method", ["oracle", "both"])
def test_gamma_oracle_at_the_case_limit_refuses_over_it_before_building(capsys, method):
    # A degree d counts (a+1)(b+1) cases.  At the limit the oracle builds its one root
    # table; past it nothing is built and stdout stays empty.
    limit = cli.ORACLE_CASE_LIMIT
    argv = ["gamma", "--u", "s0", "--method", method, "--d"]
    with Calls() as calls:
        code, out, err = run_cli(capsys, *argv, f"0,{limit - 1}")
        assert (code, err) == (0, "")
        assert out == ("closed: {r(1)}\noracle: {r(1)}\n" if method == "both" else "{r(1)}\n")
        side = math.isqrt(limit)
        for a, b in [(0, limit), (side - 1, side), (100_000, 100_000), (2**31, 2**31)]:
            code, out, err = run_cli(capsys, *argv, f"{a},{b}")
            assert (code, out) == (1, "")
            cases = (a + 1) * (b + 1)
            assert err == (
                f"error: the oracle at degree {a},{b} has {cases} cases, "
                f"over the limit of {limit}\n"
            )
    assert calls[dcn.moment_graph.roots_bounded].args == [(Degree(0, limit - 1),)]


def test_gamma_both_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(dcn.oracle, "curve_neighborhood_oracle", lambda u, d: frozenset({r(99)}))
    code, out, _ = run_cli(capsys, "gamma", "--u", "1", "--d", "1,1", "--method", "both")
    assert code == 2
    assert "MISMATCH" in out


def test_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--u", "1", "--d", "2,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {
        "command": "gamma",
        "u": "r(0)",
        "d": {"a": 2, "b": 2},
        "method": "closed",
    }
    assert payload["result"] == ["r(-2)", "r(2)"]


def test_ad(capsys):
    code, out, _ = run_cli(capsys, "ad", "--u", "s0", "--d", "2,3")
    assert code == 0
    assert out == "{r(0), sr(1), r(-1), sr(2), r(-2), sr(3)}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_ad_at_the_element_limit_checks_the_size_first(capsys, monkeypatch, json_flag):
    # From s0 only s1 lengthens, so Ad(s0, (n,n)) has min(2n, 2n+1) + 1 = 2n + 1
    # elements: 262,143 at n = 131071 and 262,145 at n = 131072, across 2**18.
    built = []
    monkeypatch.setattr(dcn.neighborhood, "ad_set", lambda u, d: built.append(d) or frozenset({u}))
    code, out, err = run_cli(capsys, "ad", "--u", "s0", "--d", "131071,131071", *json_flag)
    assert (code, err, built) == (0, "", [Degree(131071, 131071)])
    assert "sr(0)" in out
    code, out, err = run_cli(capsys, "ad", "--u", "s0", "--d", "131072,131072", *json_flag)
    assert (code, out, built) == (1, "", [Degree(131071, 131071)])
    assert err == (
        "error: Ad(sr(0), (131072,131072)) has 262145 elements, over the limit of 262144\n"
    )


def test_chains(capsys):
    code, out, _ = run_cli(capsys, "chains", "--u", "s0", "--d", "2,1")
    assert code == 0
    assert out == (
        "sr(0)  degree 0,0\n"
        "sr(0) -[0,1]-> r(1)  degree 0,1\n"
        "sr(0) -[0,1]-> r(1) -[1,0]-> sr(-1)  degree 1,1\n"
        "sr(0) -[2,1]-> r(-1)  degree 2,1\n"
    )


def test_chains_json(capsys):
    code, out, _ = run_cli(capsys, "chains", "--u", "1", "--d", "1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == [
        {"start": "r(0)", "steps": [], "degree": {"a": 0, "b": 0}},
        {
            "start": "r(0)",
            "steps": [{"root": {"a": 1, "b": 0}, "target": "sr(0)"}],
            "degree": {"a": 1, "b": 0},
        },
    ]


# -- graph export ---------------------------------------------------------------------

def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--max-length", "1")
    assert code == 0
    assert out.startswith("digraph moment_graph {")
    assert '"r(0)" -> "sr(1)" [label="0,1"];' in out
    assert "{ rank=same; " in out


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--max-length", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["vertices"] == ["r(0)", "sr(0)", "sr(1)"]
    assert payload["result"]["edges"] == [
        {"source": "r(0)", "target": "sr(1)", "root": {"a": 0, "b": 1}},
        {"source": "r(0)", "target": "sr(0)", "root": {"a": 1, "b": 0}},
    ]


def test_graph_json_names_each_vertex_and_root_once(capsys):
    # Every element the writer names goes through format_element, and every object
    # through _block: each vertex is named once and each root's object built once,
    # however many edges hold them.
    with Calls() as calls:
        code, out, _ = run_cli(capsys, "graph", "--max-length", "6", "--format", "json")
    result = json.loads(out)["result"]
    roots = {(edge["root"]["a"], edge["root"]["b"]) for edge in result["edges"]}
    assert code == 0 and len(result["edges"]) > len(roots) > 1
    named = Counter(g for g, in calls[format_element].args)
    assert named == Counter(parse_element(name) for name in result["vertices"])
    assert set(named.values()) == {1}
    objects = [texts for texts, *_ in calls[json_writer._block].args]
    root_objects = [texts for texts in objects if texts[0].startswith('"a": ')]
    assert len(root_objects) == len(roots)


@pytest.mark.parametrize("form", [[], ["--format", "json"]])
def test_graph_at_the_length_limit_refuses_before_building(capsys, monkeypatch, form):
    built = []
    graph_slice = dcn.moment_graph.graph_slice
    # A slice of length 1 stands in for the one asked for, which is only recorded.
    monkeypatch.setattr(
        dcn.moment_graph, "graph_slice", lambda n: built.append(n) or graph_slice(1)
    )
    limit = cli.GRAPH_LENGTH_LIMIT
    code, out, err = run_cli(capsys, "graph", "--max-length", str(limit), *form)
    assert (code, err, built) == (0, "", [limit])
    assert out
    code, out, err = run_cli(capsys, "graph", "--max-length", str(limit + 1), *form)
    assert (code, out, built) == (1, "", [limit])
    assert err == f"error: --max-length {limit + 1} is over the limit of {limit}\n"


# -- verify ---------------------------------------------------------------------------

def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-u-length", "2", "--max-d", "1,1")
    assert code == 0
    assert out == "20 cases, 0 mismatches\n"


def test_verify_jobs(capsys):
    baseline = run_cli(capsys, "verify", "--max-u-length", "2", "--max-d", "2,2")
    with_jobs = run_cli(capsys, "verify", "--max-u-length", "2", "--max-d", "2,2", "--jobs", "3")
    assert baseline == with_jobs == (0, "45 cases, 0 mismatches\n", "")


def test_verify_parses_jobs_but_does_not_hand_it_on(capsys):
    # differential_check runs the same grid for any jobs, so the CLI keeps the
    # flag for its echo alone: the check runs with its default of 1.
    argv = ["verify", "--max-u-length", "1", "--max-d", "1,1", "--jobs", "2", "--json"]
    with Calls() as calls:
        code, out, _ = run_cli(capsys, *argv)
    assert (code, json.loads(out)["input"]["jobs"]) == (0, 2)
    assert calls[dcn.oracle.differential_check].args == [(1, Degree(1, 1), 1)]


@pytest.mark.parametrize("form", [[], ["--json"]])
def test_verify_at_the_case_limit_refuses_over_it_before_building(capsys, monkeypatch, form):
    # A grid (L, a,b) has (2L+1)(a+1)(b+1) cases.  The one-case grid stands in for a
    # grid at the limit, which is only recorded; past it nothing is built.
    limit = cli.ORACLE_CASE_LIMIT
    one_case = dcn.oracle.differential_check(0, Degree(0, 0))
    asked = []
    monkeypatch.setattr(
        dcn.oracle, "differential_check", lambda *grid: asked.append(grid) or one_case
    )
    side = math.isqrt(limit)
    at = [(0, 0, limit - 1), (0, side - 1, side - 1), (limit // 2 - 1, 0, 0), (30, 31, 31)]
    over = [(0, 0, limit), (0, side - 1, side), (limit // 2, 0, 0), (30, 32, 32),
            (2**31, 0, 0), (0, 2**31, 2**31)]
    for n, a, b in at + over:
        argv = ["verify", "--max-u-length", str(n), "--max-d", f"{a},{b}", *form]
        code, out, err = run_cli(capsys, *argv)
        if (n, a, b) in at:
            assert (code, err, asked[-1]) == (0, "", (n, Degree(a, b)))
        else:
            assert (code, out, len(asked)) == (1, "", len(at))
            cases = (2 * n + 1) * (a + 1) * (b + 1)
            assert err == (
                f"error: the grid ({n}, {a},{b}) has {cases} cases, over the limit of {limit}\n"
            )


def test_verify_full_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-u-length", "6", "--max-d", "4,4")
    assert code == 0
    assert out == "325 cases, 0 mismatches\n"


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-u-length", "2", "--max-d", "1,1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == {
        "command": "verify",
        "max_u_length": 2,
        "max_d": {"a": 1, "b": 1},
        "jobs": 1,
    }
    assert payload["result"] == {"cases_total": 20, "cases_passed": 20}
    assert payload["mismatches"] == []


ONE_MISMATCH = DiffReport(
    cases_total=1,
    cases_passed=0,
    mismatches=(Mismatch(sr(0), Degree(2, 3), frozenset({r(3)}), frozenset({sr(-3)})),),
)


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(dcn.oracle, "differential_check", lambda *a, **kw: ONE_MISMATCH)
    code, out, _ = run_cli(capsys, "verify", "--max-u-length", "1", "--max-d", "1,1")
    assert code == 2
    assert out == (
        "1 cases, 1 mismatches\n"
        "mismatch u=sr(0) d=2,3 closed={r(3)} oracle={sr(-3)}\n"
    )


def test_verify_mismatch_json_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(dcn.oracle, "differential_check", lambda *a, **kw: ONE_MISMATCH)
    argv = ["verify", "--max-u-length", "1", "--max-d", "1,1", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["result"] == {"cases_total": 1, "cases_passed": 0}
    assert payload["mismatches"] == [
        {"u": "sr(0)", "d": {"a": 2, "b": 3}, "closed": ["r(3)"], "oracle": ["sr(-3)"]}
    ]


# -- JSON bytes against json.dumps, for shapes no stored replay has ------------------

def _dumps(payload):
    return json.dumps(payload, indent=2) + "\n"


def test_json_bytes_of_a_graph_without_edges(capsys):
    code, out, _ = run_cli(capsys, "graph", "--max-length", "0", "--format", "json")
    reference = {
        "input": {"command": "graph", "max_length": 0},
        "result": {"vertices": ["r(0)"], "edges": []},
    }
    assert (code, out) == (0, _dumps(reference))


def test_json_bytes_of_a_chain_without_steps(capsys):
    code, out, _ = run_cli(capsys, "chains", "--u", "1", "--d", "0,0", "--json")
    zero = {"a": 0, "b": 0}
    reference = {
        "input": {"command": "chains", "u": "r(0)", "d": zero},
        "result": [{"start": "r(0)", "steps": [], "degree": zero}],
    }
    assert (code, out) == (0, _dumps(reference))


def test_json_bytes_of_one_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(dcn.oracle, "differential_check", lambda *a, **kw: ONE_MISMATCH)
    code, out, _ = run_cli(capsys, "verify", "--max-u-length", "1", "--max-d", "1,1", "--json")
    reference = {
        "input": {"command": "verify", "max_u_length": 1, "max_d": {"a": 1, "b": 1}, "jobs": 1},
        "result": {"cases_total": 1, "cases_passed": 0},
        "mismatches": [
            {"u": "sr(0)", "d": {"a": 2, "b": 3}, "closed": ["r(3)"], "oracle": ["sr(-3)"]}
        ],
    }
    assert (code, out) == (2, _dumps(reference))


def test_json_bytes_of_a_disagreement(capsys, monkeypatch):
    wrong = frozenset({sr(-4), r(99), r(2)})
    monkeypatch.setattr(dcn.oracle, "curve_neighborhood_oracle", lambda u, d: wrong)
    argv = ["gamma", "--u", "1", "--d", "1,1", "--method", "both", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    reference = {
        "input": {"command": "gamma", "u": "r(0)", "d": {"a": 1, "b": 1}, "method": "both"},
        "result": ["r(-1)", "r(1)"],
        "oracle": ["r(2)", "sr(-4)", "r(99)"],
        "agree": False,
    }
    assert (code, out) == (2, _dumps(reference))


# -- errors and exit codes -------------------------------------------------------------

def test_parse_error_exits_1(capsys):
    code, out, err = run_cli(capsys, "length", "sr(3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "position 4" in err


def test_range_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "length", f"r({2**31 + 1})")
    assert code == 1
    assert "range" in err


WIDE = "9" * 5_000  # past the 4,300 digits int() converts


@pytest.mark.parametrize(
    "argv, message",
    [
        (["length", "r(²)"], "expected an integer at position 2"),
        (["length", "r(٣)"], "expected an integer at position 2"),
        (["length", f"sr(-{WIDE})"], "coefficient of 5000 digits outside the supported range"),
        (["gamma", "--u", "s0", "--d", "²,1"], "expected a non-negative integer at position 0"),
        (["gamma", "--u", "s0", "--d", "1,٣"], "expected a non-negative integer at position 2"),
        (["gamma", "--u", "s0", "--d", f"1,{WIDE}"], "coefficient of 5000 digits outside"),
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_non_ascii_and_overlong_numbers_exit_1(capsys, argv, message, json_flag):
    code, out, err = run_cli(capsys, *argv, *json_flag)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


VERIFY = ["verify", "--max-u-length", "1", "--max-d", "1,1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graph", "--max-length", "٢"], "expected a non-negative integer at position 0"),
        (["graph", "--max-length", "-1"], "expected a non-negative integer at position 0"),
        (["graph", "--max-length", "1 0"], "unexpected blank inside a number at position 1"),
        (["graph", "--max-length", WIDE], "count of 5000 digits outside the supported range"),
        (["verify", "--max-u-length", "٢", "--max-d", "1,1"], "expected a non-negative integer"),
        ([*VERIFY, "--jobs", "٣"], "expected a positive integer at position 0"),
        ([*VERIFY, "--jobs", "0"], "expected a positive integer at position 0"),
        (["gamma", "--u", "s0", "--d", "1 0,2"], "unexpected blank inside a number at position 1"),
        (["length", "r(1 2)"], "unexpected blank inside a number at position 3"),
        (
            ["graph", "--max-length", "9999999999"],
            "count 9999999999 outside the supported range 0 <= n <= 2**31\n",
        ),
        (
            [*VERIFY, "--jobs", "2147483649"],
            "count 2147483649 outside the supported range 0 <= n <= 2**31\n",
        ),
    ],
)
@pytest.mark.parametrize("json_output", [False, True])
def test_bad_counts_and_split_numbers_exit_1(capsys, argv, message, json_output):
    # Count flags go through the element grammar's reader: ASCII digits of
    # bounded width, no blank inside a number.
    if json_output:
        argv = [*argv, *(["--format", "json"] if argv[0] == "graph" else ["--json"])]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200


def test_count_flags_accept_leading_zeros(capsys):
    assert run_cli(capsys, "graph", "--max-length", "007") == run_cli(
        capsys, "graph", "--max-length", "7"
    )
    code, out, _ = run_cli(capsys, *VERIFY, "--jobs", "007", "--json")
    assert code == 0
    assert json.loads(out)["input"]["jobs"] == 7


def test_missing_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "gamma", "--u", "1")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "length", "s0", "--frobnicate")
    assert code == 1
    assert err.startswith("error:")


def test_bad_method_exits_1(capsys):
    code, _, _ = run_cli(capsys, "gamma", "--u", "1", "--d", "1,1", "--method", "magic")
    assert code == 1


def test_no_command_exits_1(capsys):
    assert run_cli(capsys, )[0] == 1


def test_help_exits_0():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


# -- the argv grammar --------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, canonical",
    [
        ("gamma --u=s0 --d 2,3", "gamma --u s0 --d 2,3"),
        ("gamma --u=s0 --d=2,3 --method=both", "gamma --u s0 --d 2,3 --method both"),
        ("length --json s0", "length s0 --json"),
        ("mul --json sr(2) r(3)", "mul sr(2) r(3) --json"),
        ("mul sr(2) --json r(3)", "mul sr(2) r(3) --json"),
        ("gamma --json --d 2,3 --u s0", "gamma --u s0 --d 2,3 --json"),
        ("gamma --u s1 --d 2,3 --u s0", "gamma --u s0 --d 2,3"),
        ("gamma --u s0 --d 2,3 --method oracle --method closed", "gamma --u s0 --d 2,3"),
        ("graph --format=json --max-length 2", "graph --max-length 2 --format json"),
        ("graph --max-length=2 --format json --format dot", "graph --max-length 2"),
        ("verify --max-d 1,1 --max-u-length 1", "verify --max-u-length 1 --max-d 1,1"),
    ],
)
def test_accepted_argv_forms_print_the_canonical_bytes(capsys, argv, canonical):
    expected = run_cli(capsys, *canonical.split())
    assert expected[0] == 0 and expected[1]
    assert run_cli(capsys, *argv.split()) == expected


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "frob",
        "--json length s0",
        "gamma --u s0",
        "gamma --u s0 --d",
        "gamma --d 2,3 --u",
        "gamma --u --d 2,3",
        "length s0 --frobnicate",
        "length s0 r(1)",
        "length",
        "mul s0",
        "gamma --u s0 --d 2,3 s1",
        "gamma --u s0 --d 1,1 --method magic",
        "gamma --u s0 --d 1,1 --method=",
        "graph --max-length 2 --format svg",
        "graph --max-length 2 --json",
        "length s0 --json=1",
        # No prefix stands for an option, and "--" does not end the options.
        "gamma --u s0 --d 1,1 --meth both",
        "gamma --u s0 --d 1,1 --method bo",
        "length -- s0",
        "length s0 -j",
    ],
)
def test_rejected_argv_forms_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


COMMANDS = ("length", "word", "phi", "mul", "ad", "gamma", "chains", "graph", "verify")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["frob", "--help"], ["--help", "gamma"]])
def test_help_without_a_command_names_every_command(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert (excinfo.value.code, captured.err) == (0, "")
    assert [line.split()[1] for line in captured.out.splitlines()[::2]] == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_help_after_a_command_shows_that_command(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    usage, help_text = capsys.readouterr().out.splitlines()
    assert excinfo.value.code == 0
    assert usage.startswith(f"dcn {command} ") and help_text.strip()


def test_gamma_help_shows_its_options(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gamma", "-h"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == "dcn gamma --u U --d D [--json] [--method {closed,oracle,both}]"


@pytest.mark.parametrize(
    "command, usage",
    [
        ("length", "dcn length G [--json]"),
        ("word", "dcn word G [--json]"),
        ("phi", "dcn phi G [--json]"),
        ("mul", "dcn mul G H [--json]"),
    ],
)
def test_positional_help_names_the_echoed_arguments(capsys, command, usage):
    # A positional is shown as its name in the JSON echo, upper-cased like an
    # option's value.
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-h"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == usage


# -- output path and import cost ------------------------------------------------------

def test_text_output_is_the_same_for_any_chunk_size(capsys, monkeypatch):
    argv = ["chains", "--u", "s0", "--d", "4,3"]
    expected = "".join(line + "\n" for line in chain_lines(sr(0), Degree(4, 3)))
    n = expected.count("\n")
    for chunk in (1, 2, n - 1, n, n + 1, 1024):
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
        assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["chains", "--u", "s0", "--d", "3,2", "--json"],
        ["graph", "--max-length", "3", "--format", "json"],
    ],
)
def test_json_output_is_the_same_for_any_chunk_size(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0 and expected[1].endswith("}\n")
    for chunk in (1, 2, 3, 1024):
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
        assert run_cli(capsys, *argv) == expected


_HEAVY = ("__future__", "dataclasses", "inspect", "json", "concurrent.futures", "logging")


def _newly_loaded(code, *flags, banned=_HEAVY):
    """The ``banned`` modules that ``code`` loads, run to success in a fresh interpreter;
    the list goes to stderr, since a command's output goes to stdout."""
    script = (
        f"import sys; before = set(sys.modules); {code}; "
        f"print(*(m for m in {banned!r} if m in sys.modules and m not in before), file=sys.stderr)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.split()


def test_import_leaves_heavy_modules_unloaded():
    # Only what importing dcn.cli and the closed form adds counts; the
    # interpreter's own start-up may load other modules.
    assert _newly_loaded("import dcn.cli; dcn.curve_neighborhood") == []


@pytest.mark.parametrize("code", [
    "import dcn.cli",
    "import dcn; dcn.curve_neighborhood",
    *[
        f"from dcn.cli import main; assert main({argv!r}) == 0"
        for argv in [
            ["length", "r(3)"],
            ["word", "r(3)"],
            ["phi", "sr(-2)"],
            ["mul", "r(2)", "s1"],
            ["ad", "--u", "s0", "--d", "2,3"],
            ["gamma", "--u", "s0", "--d", "2,3", "--method", "both"],
            ["chains", "--u", "s0", "--d", "2,1"],
            ["graph", "--max-length", "2"],
            ["verify", "--max-u-length", "1", "--max-d", "1,1"],
        ]
        for argv in [argv, [*argv, *(["--format", "json"] if "graph" in argv else ["--json"])]]
    ],
])
def test_clean_host_loads_no_typing_re_or_importlib(code):
    # Under -S no site module runs, so no .pth file can preload typing or re and
    # hide them from the diff; PYTHONPATH still names dcn's directory.  JSON output
    # is written without the json module, which itself imports re.
    banned = (*_HEAVY, "typing", "re", "contextlib", "importlib", "warnings")
    assert _newly_loaded(code, "-S", banned=banned) == []


@pytest.mark.parametrize(
    "argv", [["gamma", "--u", "s0", "--d", "2,3"], ["chains", "--u", "s0", "--d", "2,1"]]
)
def test_commands_load_no_argument_parser(argv):
    # argv is read from the command table: no argparse, and with it no gettext
    # or locale, which argparse loads for its messages.
    code = f"from dcn.cli import main; main({argv!r})"
    assert _newly_loaded(code, banned=("argparse", "gettext", "locale")) == []


def _run_then_list_modules(code):
    """Run ``code`` in a fresh interpreter, so that what one case loads cannot hide
    what the next one would, then print the ``dcn`` modules loaded, one line."""
    script = f"import sys; {code}; print(*sorted(m for m in sys.modules if m.startswith('dcn.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


_ROUTES = ("neighborhood", "moment_graph", "oracle")
_MAIN = "from dcn.cli import main; main({!r})"
# Every command, each with the routes it imports; ``_JSON_ARGV`` adds its JSON flag.
_COMMAND_ROUTES = [
    (["length", "r(3)"], ()),
    (["word", "r(3)"], ()),
    (["phi", "sr(-2)"], ()),
    (["mul", "r(2)", "s1"], ()),
    (["ad", "--u", "s0", "--d", "2,3"], ("neighborhood",)),
    (["gamma", "--u", "s0", "--d", "2,3"], ("neighborhood",)),
    (["gamma", "--u", "s0", "--d", "2,3", "--method", "oracle"], _ROUTES),
    (["gamma", "--u", "s0", "--d", "2,3", "--method", "both"], _ROUTES),
    (["chains", "--u", "s0", "--d", "2,1"], ("neighborhood", "moment_graph")),
    (["graph", "--max-length", "2"], ("moment_graph",)),
    (["verify", "--max-u-length", "1", "--max-d", "1,1"], _ROUTES),
]


def _json_argv(argv):
    return [*argv, *(["--format", "json"] if argv[0] == "graph" else ["--json"])]


@pytest.mark.parametrize("code, loaded", [
    ("import dcn", ()),
    # The closed form and the chain search never load the printed grammar; a parser does.
    ("import dcn; dcn.curve_neighborhood", ("dihedral", "neighborhood")),
    ("import dcn; dcn.reachable_set", ("dihedral", "neighborhood", "moment_graph")),
    ("import dcn; dcn.parse_element", ("dihedral", "neighborhood", "moment_graph", "grammar")),
    # The oracle takes its bases in printed order and prints nothing; its report prints
    # through the grammar.
    ("import dcn; dcn.oracle", ("dihedral", *_ROUTES)),
    ("import dcn.oracle", ("dihedral", *_ROUTES)),
    ("import dcn; dcn.format_report", ("dihedral", "neighborhood", "moment_graph", "grammar")),
    ("import dcn.cli", ("cli", "dihedral", "grammar")),
    ("from dcn import cli", ("cli", "dihedral", "grammar")),
    ("from dcn import json_writer", ("dihedral", "grammar", "json_writer")),
    # A text command never loads the JSON writer, and every JSON command does.
    *[
        (_MAIN.format(form(argv)), ("cli", "dihedral", "grammar", *writer, *routes))
        for argv, routes in _COMMAND_ROUTES
        for form, writer in [(list, ()), (_json_argv, ("json_writer",))]
    ],
])
def test_each_entry_point_loads_only_the_modules_it_uses(code, loaded):
    # The module list is the last line of stdout, after any command output.
    done = _run_then_list_modules(code)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1].split() == sorted(f"dcn.{name}" for name in loaded)


def test_the_module_pins_cover_every_command():
    assert {argv[0] for argv, _ in _COMMAND_ROUTES} == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--u", "r(x)", "--d", "1,1"],
        ["chains", "--u", "s0", "--d", "1,x"],
        ["ad", "--u", "r(x)", "--d", "1,1"],
        ["verify", "--max-u-length", "x", "--max-d", "1,1"],
        ["graph", "--max-length", "x"],
        ["gamma", "--u", "s0", "--d", "2147483648,2147483648", "--method", "oracle"],
        ["verify", "--max-u-length", "2147483648", "--max-d", "0,0"],
    ],
    ids=" ".join,
)
def test_a_refused_argument_loads_no_route_module(argv):
    # Every argument is read before the command runs, and the oracle's case limit is
    # checked before its imports, so none of them happen: stdout holds only the exit
    # code and the module list.
    done = _run_then_list_modules(f"from dcn.cli import main; print(main({argv!r}))")
    assert done.returncode == 0
    assert done.stdout.split() == ["1", "dcn.cli", "dcn.dihedral", "dcn.grammar"]
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


# -- determinism: argv alone sets the output ----------------------------------------------

def test_identical_invocations_are_byte_identical(capsys):
    first = run_cli(capsys, "gamma", "--u", "sr(-2)", "--d", "3,2", "--json")
    second = run_cli(capsys, "gamma", "--u", "sr(-2)", "--d", "3,2", "--json")
    assert first == second


# ``DCN_COLOR`` is a retired color switch that a caller may still set: it must change no byte.
def _with_and_without_stale_color(capsys, monkeypatch, argv):
    monkeypatch.setenv("DCN_COLOR", "1")
    stale = run_cli(capsys, *argv)
    monkeypatch.delenv("DCN_COLOR")
    return stale, run_cli(capsys, *argv)


def test_verify_output_ignores_the_environment(capsys, monkeypatch):
    argv = ["verify", "--max-u-length", "1", "--max-d", "1,1"]
    stale, plain = _with_and_without_stale_color(capsys, monkeypatch, argv)
    assert stale == plain == (0, "12 cases, 0 mismatches\n", "")
    stale, plain = _with_and_without_stale_color(capsys, monkeypatch, [*argv, "--json"])
    assert stale == plain
    assert json.loads(plain[1])["result"] == {"cases_total": 12, "cases_passed": 12}


def test_gamma_both_mismatch_ignores_the_environment(capsys, monkeypatch):
    monkeypatch.setattr(dcn.oracle, "curve_neighborhood_oracle", lambda u, d: frozenset({r(99)}))
    argv = ["gamma", "--u", "1", "--d", "1,1", "--method", "both"]
    stale, plain = _with_and_without_stale_color(capsys, monkeypatch, argv)
    assert stale == plain == (2, "closed: {r(-1), r(1)}\noracle: {r(99)}\nMISMATCH\n", "")


def test_refusal_ignores_the_environment(capsys, monkeypatch):
    argv = ["gamma", "--u", "r(x)", "--d", "1,1"]
    stale, plain = _with_and_without_stale_color(capsys, monkeypatch, argv)
    assert stale == plain
    assert plain[:2] == (1, "") and plain[2].startswith("error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["verify", "--max-u-length", "2", "--max-d", "2,1"], 0, id="verify"),
        pytest.param(["chains", "--u", "s1", "--d", "2,2", "--json"], 0, id="chains-json"),
        pytest.param(["verify", "--max-u-length", "0", "--max-d", "0,65536"], 1, id="refused"),
    ],
)
def test_fresh_interpreters_print_the_same_bytes(argv, code):
    # One run with the stale color switch set, one without it; each under its own
    # string-hash seed, so no set or dict order can leak into the output either.
    entry = f"import sys; from dcn.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    env.pop("DCN_COLOR", None)
    runs = [
        subprocess.run(
            [sys.executable, "-c", entry], env={**env, **extra}, capture_output=True, timeout=60
        )
        for extra in ({"PYTHONHASHSEED": "0", "DCN_COLOR": "1"}, {"PYTHONHASHSEED": "1"})
    ]
    first, second = ((run.returncode, run.stdout, run.stderr) for run in runs)
    assert first == second
    # A success writes stdout only, a refusal stderr only.
    assert (first[0], first[1] == b"", first[2] == b"") == (code, code == 1, code == 0)
