"""End-to-end acceptance suite.

Each criterion runs as one test, asserts its stated tolerance (set equality,
exhaustive grids, time budgets), and prints a single pass/fail line.  Run
``pytest -s tests/test_acceptance.py`` to see the lines as they pass.
"""

import io
import time
from contextlib import redirect_stdout

from dcn import (
    Degree,
    differential_check,
    enumerate_chains,
    enumerate_up_to_length,
    explicit_length,
    parse_element,
    r,
    reduced_word,
    sort_elements,
    sr,
)
from dcn.cli import main as cli_main
from reference import (
    chain_parity_witness,
    degrees_up_to,
    has_increasing_chain,
    is_subword,
    neighborhood_result,
    parity_witness,
    word_product,
)


def _run_criterion(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    in_budget = budget_seconds is None or elapsed < budget_seconds
    status = "PASS" if in_budget else "FAIL (time budget)"
    print(f"criterion {number}: {status} ({elapsed:.2f}s) - {description}")
    assert in_budget, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"


def _run_gamma(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def _parse_element_set(text):
    inner = text.strip().strip("{}").strip()
    if not inner:
        return frozenset()
    return frozenset(parse_element(part) for part in inner.split(","))


def test_criterion_1_gamma_identity_2_2():
    def body():
        code, out = _run_gamma("gamma", "--u", "1", "--d", "2,2")
        assert code == 0
        # printed order is pinned separately (length, then rotation, then k);
        # the required answer is the set itself
        assert _parse_element_set(out) == {r(2), r(-2)}

    _run_criterion(1, "gamma --u 1 --d 2,2 returns {r(2), r(-2)}", 1.0, body)


def test_criterion_2_closed_form_equals_oracle_on_full_grid():
    def body():
        report = differential_check(6, Degree(4, 4))
        assert report.cases_total == 325
        assert report.cases_passed == 325
        assert report.mismatches == ()

    _run_criterion(2, "closed form == chain oracle on all 325 grid cases", 60.0, body)


def test_criterion_3_gamma_s0_2_3_both_methods_agree():
    def body():
        code, out = _run_gamma("gamma", "--u", "s0", "--d", "2,3", "--method", "both")
        assert code == 0
        closed_line, oracle_line = out.splitlines()
        closed = _parse_element_set(closed_line.split(": ", 1)[1])
        oracle = _parse_element_set(oracle_line.split(": ", 1)[1])
        # The asserted fact is agreement of the two independent routes. The
        # value itself is convention-sensitive: with s0 = sr(0), s1 = sr(1)
        # and the multiplication table used here, both routes give {r(3)}.
        # A length-7 reflection such as sr(-3) cannot appear at this degree:
        # chain endpoints v satisfy phi(u^-1 v) <= d componentwise, which
        # caps endpoint length at l(u) + d.a + d.b = 6 (sr(-3) shows up one
        # degree later, in gamma --u s0 --d 3,3).
        assert closed == oracle
        assert closed == {r(3)}
        assert all(not v.is_reflection and explicit_length(v) == 6 for v in closed)

    _run_criterion(
        3, "gamma --u s0 --d 2,3 --method both agrees on the length-6 rotation", None, body
    )


def test_criterion_4_lengths_match_reduced_words():
    def body():
        for k in range(-50, 51):
            for g in (r(k), sr(k)):
                word = reduced_word(g)
                assert len(word) == explicit_length(g)
                assert word_product(word) == g

    _run_criterion(4, "explicit lengths match reduced words for |k| <= 50", 1.0, body)


def test_criterion_5_parity_suites():
    def body():
        # (a) letter-count gaps over the full pair grid |k| <= 100
        pool = [ctor(k) for k in range(-100, 101) for ctor in (r, sr)]
        for g in pool:
            for h in pool:
                wit_r, wit_s = parity_witness(g, h)  # raises on odd/negative gap
                assert wit_r >= 0 and wit_s >= 0
        # (b) every chain from every u of length <= 4 under budget (3,3)
        for u in sort_elements(enumerate_up_to_length(4)):
            for chain in enumerate_chains(u, Degree(3, 3)):
                wit_r, wit_s = chain_parity_witness(chain)
                assert wit_r >= 0 and wit_s >= 0

    _run_criterion(5, "parity gaps non-negative and even (pair grid + chain grid)", 30.0, body)


def test_criterion_6_chain_existence_matches_length_order():
    def body():
        pool = sort_elements(enumerate_up_to_length(6))
        for u in pool:
            for v in pool:
                expected = u == v or explicit_length(u) < explicit_length(v)
                assert has_increasing_chain(u, v) == expected

    _run_criterion(6, "chain reachability == length order for lengths <= 6", 30.0, body)


def test_criterion_7_structural_invariants():
    def body():
        for u in sort_elements(enumerate_up_to_length(6)):
            for d in degrees_up_to(Degree(4, 4)):
                result = neighborhood_result(u, d)
                assert 1 <= len(result.gamma) <= 2
                top = max(explicit_length(w) for w in result.ad)
                assert all(
                    explicit_length(v) == explicit_length(u) + top
                    for v in result.gamma
                )
                for z in result.ad:
                    assert any(
                        is_subword(reduced_word(z), reduced_word(w)) for w in result.maximal
                    )

    _run_criterion(7, "neighborhood size, uniform length, and dominance", None, body)
