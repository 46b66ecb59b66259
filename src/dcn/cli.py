"""Command-line front end: element queries, neighborhoods, graph export, verify.

Each command returns an ``Answer``, and ``_render`` alone writes stdout: text, or
with ``--json`` (``--format json`` for ``graph``) the object ``{"input": {"command",
<normalized arguments>}, "result"}``, plus ``"oracle"`` and ``"agree"`` for ``gamma
--method both`` and ``"mismatches"`` for ``verify``.  Both forms are written
``_CHUNK_LINES`` lines at a time, so long output such as ``chains`` still streams.
Exit codes: 0 success, 1 usage, parse or limit error, 2 verification mismatch.  Before
building it, ``word`` rejects a word of more than ``WORD_LETTER_LIMIT`` letters and
``ad`` a set of more than ``AD_ELEMENT_LIMIT`` elements; before writing it, ``phi``,
``mul``, ``gamma`` and ``chains`` reject an answer with a number past ``2**31``, which
would not parse again.  Output is deterministic; set DCN_COLOR=1 for ANSI color in
human output (JSON and DOT are always color-free).  This module loads only
``dihedral``; each command imports the routes it runs, so no command compiles a module
it does not use.
"""

import argparse
import os
import sys
from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .dihedral import (
    COEFFICIENT_BOUND,
    CoefficientRangeError,
    GroupElement,
    ParseError,
    _LETTERS,
    explicit_length,
    format_degree,
    format_element,
    format_element_set,
    format_word,
    mul,
    parse_count,
    parse_degree,
    parse_element,
    phi,
    reduced_word,
    sort_elements,
)

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"

# One write per chunk: with an unbuffered stdout (PYTHONUNBUFFERED), print()
# costs two write(2) calls per line.
_CHUNK_LINES = 1024

# 2**20 letters is |k| = 2**19; the parser accepts |k| <= 2**31, whose word
# would not fit in memory.
WORD_LETTER_LIMIT = 2**20

# ``ad --u 1 --d 65536,65536`` (262,145 elements) takes 1.4 s and 79 MB, and the
# cost grows with d; ``ad_size`` counts the set before any element is built.
AD_ELEMENT_LIMIT = 2**18


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tint(text: str, color: str) -> str:
    return f"{color}{text}{_RESET}" if os.environ.get("DCN_COLOR") == "1" else text


def _ab_json(x) -> dict:
    """A degree or a root as ``{"a": .., "b": ..}``."""
    return {"a": x.a, "b": x.b}


def _elements_json(elements) -> list[str]:
    return [format_element(g) for g in sort_elements(elements)]


class Answer(NamedTuple):
    """A command's result: the echoed arguments after ``"command"``, the JSON
    keys after ``"input"``, the text lines, and the exit code.  Both output
    forms are built on demand, and ``lines()`` may stream."""

    input: dict
    fields: Callable[[], dict]
    lines: Callable[[], Iterable[str]]
    code: int = 0


def _one_line(echo: dict, result, text: str) -> Answer:
    return Answer(echo, lambda: {"result": result}, lambda: [text])


def _element_set(echo: dict, elements) -> Answer:
    return Answer(
        echo,
        lambda: {"result": _elements_json(elements)},
        lambda: [format_element_set(elements)],
    )


def _check_printable(what: str, elements: Iterable[GroupElement]) -> None:
    """Refuse, before anything is written, an element the parser would reject."""
    for g in elements:
        if abs(g.k) > COEFFICIENT_BOUND:
            raise CoefficientRangeError(f"{what} {format_element(g)}")


def _cmd_length(args) -> Answer:
    g = parse_element(args.element)
    value = explicit_length(g)
    return _one_line({"g": format_element(g)}, value, str(value))


def _cmd_word(args) -> Answer:
    g = parse_element(args.element)
    letters = explicit_length(g)
    if letters > WORD_LETTER_LIMIT:
        raise UsageError(
            f"the reduced word of {format_element(g)} has {letters} letters, "
            f"over the limit of {WORD_LETTER_LIMIT}"
        )
    word = reduced_word(g)
    return _one_line({"g": format_element(g)}, [_LETTERS[i] for i in word], format_word(word))


def _cmd_phi(args) -> Answer:
    g = parse_element(args.element)
    counts = phi(g)
    # Only sr(-2**31) has a count past the bound: phi(sr(k)) = (|k| + 1, |k|) for k <= 0.
    if counts.a > COEFFICIENT_BOUND:
        raise CoefficientRangeError(f"letter counts {format_degree(counts)}")
    return _one_line({"g": format_element(g)}, _ab_json(counts), format_degree(counts))


def _cmd_mul(args) -> Answer:
    g = parse_element(args.left)
    h = parse_element(args.right)
    gh = mul(g, h)
    _check_printable("product", [gh])
    product = format_element(gh)
    return _one_line({"g": format_element(g), "h": format_element(h)}, product, product)


def _cmd_ad(args) -> Answer:
    from .neighborhood import ad_set, ad_size

    u = parse_element(args.u)
    d = parse_degree(args.d)
    size = ad_size(u, d)
    if size > AD_ELEMENT_LIMIT:
        raise UsageError(
            f"Ad({format_element(u)}, ({format_degree(d)})) has {size} elements, "
            f"over the limit of {AD_ELEMENT_LIMIT}"
        )
    return _element_set({"u": format_element(u), "d": _ab_json(d)}, ad_set(u, d))


def _cmd_gamma(args) -> Answer:
    from .neighborhood import curve_neighborhood

    u = parse_element(args.u)
    d = parse_degree(args.d)
    echo = {"u": format_element(u), "d": _ab_json(d), "method": args.method}
    if args.method != "closed":
        from .oracle import curve_neighborhood_oracle
    if args.method != "both":
        route = curve_neighborhood if args.method == "closed" else curve_neighborhood_oracle
        answer = route(u, d)
        _check_printable("element", answer)
        return _element_set(echo, answer)
    closed = curve_neighborhood(u, d)
    brute = curve_neighborhood_oracle(u, d)
    _check_printable("element", closed | brute)
    agree = closed == brute
    fields = {"result": _elements_json(closed), "oracle": _elements_json(brute), "agree": agree}
    lines = [f"closed: {format_element_set(closed)}", f"oracle: {format_element_set(brute)}"]
    if not agree:
        lines.append(_tint("MISMATCH", _RED))
    return Answer(echo, lambda: fields, lambda: lines, 0 if agree else 2)


def _chain_records(u, d) -> list[dict]:
    """``chains --json`` records, built in the chain walk: each step dict is built
    once per planned step of a walk state and shared by every chain through that
    step, and each degree dict once per walk state and shared by every chain ending
    in it."""
    from .moment_graph import _walk

    start = format_element(u)
    walk = _walk(
        u,
        d,
        lambda alpha, w: ({"root": _ab_json(alpha), "target": format_element(w)},),
        lambda a, b: {"a": a, "b": b},
        (),
    )
    return [{"start": start, "steps": steps, "degree": degree} for steps, degree in walk]


def _cmd_chains(args) -> Answer:
    from .moment_graph import chain_lines
    from .neighborhood import curve_neighborhood

    u = parse_element(args.u)
    d = parse_degree(args.d)
    # The longest endpoints carry the largest |k|.
    _check_printable("endpoint", curve_neighborhood(u, d))
    return Answer(
        {"u": format_element(u), "d": _ab_json(d)},
        lambda: {"result": _chain_records(u, d)},
        lambda: chain_lines(u, d),
    )


def _graph_json(max_length: int) -> dict:
    from .moment_graph import graph_slice

    vertices, edges = graph_slice(max_length)
    names = {v: format_element(v) for v in vertices}
    roots = {alpha: _ab_json(alpha) for alpha in {alpha for _, alpha, _ in edges}}
    return {
        "vertices": list(names.values()),
        "edges": [
            {"source": names[u], "target": names[v], "root": roots[alpha]}
            for u, alpha, v in edges
        ],
    }


def _cmd_graph(args) -> Answer:
    from .moment_graph import to_dot

    n = parse_count(args.max_length)
    return Answer({"max_length": n}, lambda: {"result": _graph_json(n)}, lambda: to_dot(n))


def _mismatch_json(m) -> dict:
    closed, oracle = _elements_json(m.closed), _elements_json(m.oracle)
    return {"u": format_element(m.u), "d": _ab_json(m.d), "closed": closed, "oracle": oracle}


def _cmd_verify(args) -> Answer:
    from .oracle import differential_check, format_report

    max_u_length = parse_count(args.max_u_length)
    max_d = parse_degree(args.max_d)
    jobs = parse_count(args.jobs, positive=True)
    report = differential_check(max_u_length, max_d)
    summary, *details = format_report(report)
    return Answer(
        {"max_u_length": max_u_length, "max_d": _ab_json(max_d), "jobs": jobs},
        lambda: {
            "result": {"cases_total": report.cases_total, "cases_passed": report.cases_passed},
            "mismatches": [_mismatch_json(m) for m in report.mismatches],
        },
        lambda: [_tint(summary, _GREEN if report.ok else _RED), *details],
        0 if report.ok else 2,
    )


def _render(args, answer: Answer) -> int:
    """Write ``answer`` to stdout as JSON or as text: the one writer of stdout here."""
    try:
        if getattr(args, "json", False) or getattr(args, "format", None) == "json":
            import json  # costs ~3 ms; only JSON output pays

            payload = {"input": {"command": args.command, **answer.input}, **answer.fields()}
            lines = [json.dumps(payload, indent=2)]
        else:
            lines = answer.lines()
        lines, end = iter(lines), ""
        while chunk := list(islice(lines, _CHUNK_LINES)):
            sys.stdout.write(end + "\n".join(chunk))
            end = "\n"
        # A write that a closing reader cuts short returns as if whole, so the
        # last newline goes on its own: that write, or the flush, then fails.
        sys.stdout.write(end)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``dcn chains ... | head``).  Point stdout
        # at devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return answer.code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(func=func)
        return p

    p = add("length", "Coxeter length of an element", _cmd_length)
    p.add_argument("element", help="element, e.g. sr(-3), r(2), 1, s0, s1")

    p = add("word", "reduced word of an element", _cmd_word)
    p.add_argument("element")

    p = add("phi", "letter counts (#s0,#s1) of an element", _cmd_phi)
    p.add_argument("element")

    p = add("mul", "product of two elements", _cmd_mul)
    p.add_argument("left")
    p.add_argument("right")

    p = add("ad", "elements that lengthen u additively within degree d", _cmd_ad)
    p.add_argument("--u", required=True, help="base element")
    p.add_argument("--d", required=True, help="degree bound a,b")

    p = add("gamma", "curve neighborhood of u at degree d", _cmd_gamma)
    p.add_argument("--u", required=True, help="base element")
    p.add_argument("--d", required=True, help="degree bound a,b")
    p.add_argument(
        "--method",
        choices=("closed", "oracle", "both"),
        default="closed",
        help="closed form, chain-search oracle, or both (exit 2 on disagreement)",
    )

    p = add("chains", "all increasing chains from u of degree at most d", _cmd_chains)
    p.add_argument("--u", required=True, help="start element")
    p.add_argument("--d", required=True, help="degree budget a,b")

    p = sub.add_parser("graph", help="moment-graph slice on lengths <= N")
    p.add_argument("--max-length", required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=_cmd_graph)

    p = add("verify", "differential check of closed form against the oracle", _cmd_verify)
    p.add_argument("--max-u-length", required=True)
    p.add_argument("--max-d", required=True, help="degree grid corner a,b")
    p.add_argument("--jobs", default="1", help="accepted for compatibility; has no effect")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _render(args, args.func(args))
    except (UsageError, ParseError, CoefficientRangeError) as exc:
        print(_tint(f"error: {exc}", _RED), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
