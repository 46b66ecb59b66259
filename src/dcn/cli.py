"""Command-line front end: element queries, neighborhoods, graph export, verify.

``main`` reads argv from the command table ``_COMMANDS``, which also gives ``--help``,
and reads each argument by its name through ``_READERS``.  A command only computes:
``_render`` writes its answer to stdout as text, or with ``--json`` (``--format json``
for ``graph``) as the object ``{"input": {"command", <normalized arguments>},
"result"}``, plus ``"oracle"`` and ``"agree"`` for ``gamma --method both`` and
``"mismatches"`` for ``verify``, ``_CHUNK_LINES`` pieces at a time.  The module
``json_writer``, loaded only for that form, prints the object as ``json.dumps(indent=2)``
would, by value type, and streams the records of ``chains`` and the edges of ``graph``.
Exit codes: 0 success, 1 usage, parse or limit error, 2 verification mismatch.  Before
building it, ``word`` rejects a word of more than ``WORD_LETTER_LIMIT`` letters, ``ad``
a set of more than ``AD_ELEMENT_LIMIT`` elements, ``graph`` a slice longer than
``GRAPH_LENGTH_LIMIT`` = 400, and ``verify`` a grid, or ``gamma --method oracle|both`` a
degree, of more than ``ORACLE_CASE_LIMIT`` = ``2**16`` cases: ``(2L+1)(a+1)(b+1)`` for
the grid (L, a,b), ``(a+1)(b+1)`` for the degree (a, b).  Before writing it, ``phi``,
``mul``, ``gamma`` and ``chains`` reject an answer with a number past ``2**31``, which
would not parse again.  Stdout, stderr and the exit code depend on argv alone: no
environment variable changes them.  This module loads only ``dihedral`` and ``grammar``;
each command imports what it runs, once its arguments are read and its limit checked, so
a bad argument is refused before any route loads.
"""

import os
import sys
from collections.abc import Callable, Iterable
from functools import partial
from itertools import islice
from types import SimpleNamespace

from .dihedral import GroupElement, explicit_length, format_element, mul, phi, reduced_word
from .grammar import (
    COEFFICIENT_BOUND,
    CoefficientRangeError,
    ParseError,
    _LETTERS,
    format_degree,
    format_element_set,
    format_report,
    format_word,
    parse_count,
    parse_degree,
    parse_element,
)

# One write per chunk: with an unbuffered stdout (PYTHONUNBUFFERED), print()
# costs two write(2) calls per line.
_CHUNK_LINES = 1024

# 2**20 letters is |k| = 2**19; the parser accepts |k| <= 2**31, whose word
# would not fit in memory.
WORD_LETTER_LIMIT = 2**20

# ``ad --u 1 --d 65536,65536`` (262,145 elements) takes 1.4 s and 79 MB, and the
# cost grows with d; ``ad_size`` counts the set before any element is built.
AD_ELEMENT_LIMIT = 2**18

# ``graph --max-length 1024`` takes 6-9 s and 180 MB as DOT, and the edge count grows
# as n**2; at 400 the JSON form fits under 150 MB of address space.
GRAPH_LENGTH_LIMIT = 400

# Cases of a verify grid, (2L+1)(a+1)(b+1), or of one oracle sweep at a degree, (a+1)(b+1).
# At 2**16 on Python 3.11 the slowest grid found, (0, 255,255), takes 1.5 s; it and the
# largest, (0, 0,65535), peak at 15 MB resident; (30, 30,30) has 58,621 cases.
ORACLE_CASE_LIMIT = 2**16


class UsageError(Exception):
    pass


def _one_line(args, result, show: Callable[[object], str] = str) -> int:
    return _render(args, lambda: {"result": result}, lambda: [show(result)])


def _check_limit(what: str, count: int, unit: str, limit: int) -> None:
    """Refuse, before the work it counts, a ``count`` over its ``limit``."""
    if count > limit:
        raise UsageError(f"{what} has {count} {unit}, over the limit of {limit}")


def _check_printable(what: str, elements: Iterable[GroupElement]) -> None:
    """Refuse, before anything is written, an element the parser would reject."""
    for g in elements:
        if abs(g.k) > COEFFICIENT_BOUND:
            raise CoefficientRangeError(f"{what} {format_element(g)}")


def _cmd_length(args) -> int:
    return _one_line(args, explicit_length(args.g))


def _cmd_word(args) -> int:
    what = f"the reduced word of {format_element(args.g)}"
    _check_limit(what, explicit_length(args.g), "letters", WORD_LETTER_LIMIT)
    word = reduced_word(args.g)
    return _render(
        args, lambda: {"result": [_LETTERS[i] for i in word]}, lambda: [format_word(word)]
    )


def _cmd_phi(args) -> int:
    counts = phi(args.g)
    # Only sr(-2**31) has a count past the bound: phi(sr(k)) = (|k| + 1, |k|) for k <= 0.
    if counts.a > COEFFICIENT_BOUND:
        raise CoefficientRangeError(f"letter counts {format_degree(counts)}")
    return _one_line(args, counts, format_degree)


def _cmd_mul(args) -> int:
    gh = mul(args.g, args.h)
    _check_printable("product", [gh])
    return _one_line(args, gh, format_element)


def _cmd_ad(args) -> int:
    from .neighborhood import ad_set, ad_size

    what = f"Ad({format_element(args.u)}, ({format_degree(args.d)}))"
    _check_limit(what, ad_size(args.u, args.d), "elements", AD_ELEMENT_LIMIT)
    return _one_line(args, ad_set(args.u, args.d), format_element_set)


def _cmd_gamma(args) -> int:
    u, d = args.u, args.d
    if args.method != "closed":
        cases = (d.a + 1) * (d.b + 1)
        _check_limit(f"the oracle at degree {format_degree(d)}", cases, "cases", ORACLE_CASE_LIMIT)
        from .oracle import curve_neighborhood_oracle
    from .neighborhood import curve_neighborhood

    if args.method != "both":
        route = curve_neighborhood if args.method == "closed" else curve_neighborhood_oracle
        answer = route(u, d)
        _check_printable("element", answer)
        return _one_line(args, answer, format_element_set)
    closed = curve_neighborhood(u, d)
    brute = curve_neighborhood_oracle(u, d)
    _check_printable("element", closed | brute)
    agree = closed == brute
    fields = {"result": closed, "oracle": brute, "agree": agree}
    lines = [f"closed: {format_element_set(closed)}", f"oracle: {format_element_set(brute)}"]
    if not agree:
        lines.append("MISMATCH")
    return _render(args, lambda: fields, lambda: lines, 0 if agree else 2)


def _cmd_chains(args) -> int:
    from .moment_graph import chain_lines
    from .neighborhood import curve_neighborhood

    u, d = args.u, args.d
    # The longest endpoints carry the largest |k|.
    _check_printable("endpoint", curve_neighborhood(u, d))

    def fields() -> dict:
        from .json_writer import _chain_records

        return {"result": partial(_chain_records, u, d)}

    return _render(args, fields, lambda: chain_lines(u, d))


def _cmd_graph(args) -> int:
    from .moment_graph import to_dot

    n = args.max_length
    if n > GRAPH_LENGTH_LIMIT:
        raise UsageError(f"--max-length {n} is over the limit of {GRAPH_LENGTH_LIMIT}")

    def fields() -> dict:
        from .json_writer import _graph_json

        return {"result": _graph_json(n)}

    return _render(args, fields, lambda: to_dot(n))


def _cmd_verify(args) -> int:
    n, d = args.max_u_length, args.max_d
    cases = (2 * n + 1) * (d.a + 1) * (d.b + 1)
    _check_limit(f"the grid ({n}, {format_degree(d)})", cases, "cases", ORACLE_CASE_LIMIT)
    from .oracle import differential_check

    report = differential_check(n, d)
    return _render(
        args,
        lambda: {
            "result": {"cases_total": report.cases_total, "cases_passed": report.cases_passed},
            "mismatches": report.mismatches,
        },
        lambda: format_report(report),
        0 if report.ok else 2,
    )


def _render(args, fields: Callable[[], dict], lines: Callable[[], Iterable[str]], code=0) -> int:
    """Write a command's answer to stdout, the one writer of stdout here: with
    ``--json`` (``--format json``) ``{"input": <args but the output form>, **fields()}``,
    else ``lines()``, which may stream.  Returns ``code``, or 1 if the pipe closed."""
    try:
        if getattr(args, "json", False) or getattr(args, "format", None) == "json":
            from .json_writer import _json

            echo = {k: v for k, v in vars(args).items() if k not in ("json", "format")}
            out, between = _json({"input": echo, **fields()}, ""), ""
        else:
            out, between = iter(lines()), "\n"
        end = ""
        while chunk := list(islice(out, _CHUNK_LINES)):
            sys.stdout.write(end + between.join(chunk))
            end = between
        # A write that a closing reader cuts short returns as if whole, so the
        # last newline goes on its own: that write, or the flush, then fails.
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``dcn chains ... | head``).  Point stdout
        # at devnull so the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


# Each command: handler, one-line help, positionals, and long options with defaults:
# None marks a required option, False a flag, a tuple the choices (the first is default).
_U_AND_D = {"--u": None, "--d": None, "--json": False}
_COMMANDS = {
    "length": (_cmd_length, "Coxeter length of an element", ("g",), {"--json": False}),
    "word": (_cmd_word, "reduced word of an element", ("g",), {"--json": False}),
    "phi": (_cmd_phi, "letter counts (#s0,#s1) of an element", ("g",), {"--json": False}),
    "mul": (_cmd_mul, "product of two elements", ("g", "h"), {"--json": False}),
    "ad": (_cmd_ad, "elements that lengthen u additively within degree d", (), _U_AND_D),
    "gamma": (_cmd_gamma, "curve neighborhood of u at degree d; --method both exits 2 on "
              "disagreement", (), {**_U_AND_D, "--method": ("closed", "oracle", "both")}),
    "chains": (_cmd_chains, "all increasing chains from u of degree at most d", (), _U_AND_D),
    "graph": (_cmd_graph, "moment-graph slice on lengths <= N", (),
              {"--max-length": None, "--format": ("dot", "json")}),
    "verify": (_cmd_verify, "differential check of closed form against the oracle", (),
               {"--max-u-length": None, "--max-d": None, "--jobs": "1", "--json": False}),
}

# How each argument is read, by name, in every command; any other is kept as given.
_READERS = {
    **dict.fromkeys(("g", "h", "u"), parse_element),
    **dict.fromkeys(("d", "max_d"), parse_degree),
    **dict.fromkeys(("max_length", "max_u_length"), parse_count),
    "jobs": lambda text: parse_count(text, positive=True),
}


def _usage(name: str) -> str:
    _, _, positionals, options = _COMMANDS[name]
    words = ["dcn", name, *(p.upper() for p in positionals)]
    for option, default in options.items():
        value = f"{{{','.join(default)}}}" if isinstance(default, tuple) else option[2:].upper()
        word = option if default is False else f"{option} {value}"
        words.append(word if default is None else f"[{word}]")
    return " ".join(words)


def _read_argv(argv: list[str]):
    """The handler and its arguments: the command first, then its options (``--opt
    value`` or ``--opt=value``, the last one wins) and positionals in any order.  Each
    value is read once the argv is whole: positionals first, then options in table order.
    With ``-h`` or ``--help`` anywhere, the handler writes the help instead."""
    name = argv[0] if argv else None
    if "-h" in argv or "--help" in argv:
        commands = [name] if name in _COMMANDS else _COMMANDS
        lines = [f"{_usage(command)}\n    {_COMMANDS[command][1]}" for command in commands]
        return lambda _: _render(SimpleNamespace(), dict, lambda: lines), None
    if name not in _COMMANDS:
        raise UsageError(f"expected a command: {', '.join(_COMMANDS)}")
    run, _, positionals, options = _COMMANDS[name]
    values = {option: d[0] if isinstance(d, tuple) else d for option, d in options.items()}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if not token.startswith("--"):
            given.append(token)
        elif option not in options or options[option] is False and eq:
            raise UsageError(f"{name} has no option {token}")
        elif options[option] is False:
            values[option] = True
        elif not eq and (value := next(tokens, "--")).startswith("--"):
            raise UsageError(f"{option} needs a value")
        else:
            values[option] = value
    outside = [o for o, d in options.items() if isinstance(d, tuple) and values[o] not in d]
    if len(given) != len(positionals) or None in values.values() or outside:
        raise UsageError(f"usage: {_usage(name)}")
    texts = [*zip(positionals, given), *((o[2:].replace("-", "_"), v) for o, v in values.items())]
    args = {key: _READERS[key](text) if key in _READERS else text for key, text in texts}
    return run, SimpleNamespace(command=name, **args)


def main(argv: list[str] | None = None) -> int:
    try:
        run, args = _read_argv(sys.argv[1:] if argv is None else argv)
        return run(args)
    except (UsageError, ParseError, CoefficientRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
