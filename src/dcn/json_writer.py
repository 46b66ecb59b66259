"""The ``--json`` (``--format json``) writer of ``dcn.cli``, loaded only for that form.

``_json`` prints a command's answer object as ``json.dumps(indent=2)`` would, by value
type (``_text``), in pieces that ``cli._render`` writes as they come; the records of
``chains`` (``_chain_records``) and the edges of ``graph`` (``_graph_json``) stream, so
neither is held whole.  No ``json`` module loads.
"""

from collections.abc import Iterator

from .dihedral import Degree, GroupElement, _Value, format_element
from .grammar import sort_elements


def _block(texts, pad: str, brackets: str = "[]") -> str:
    """``texts`` as a JSON list (an object with ``"{}"``) at ``pad``, laid out as
    ``json.dumps(indent=2)`` does."""
    between = f",\n{pad}  "
    return f"{brackets[0]}\n{pad}  {between.join(texts)}\n{pad}{brackets[1]}" if texts else brackets


def _text(value, pad: str, memo: dict) -> str:
    """``json.dumps(value, indent=2)`` nested at ``pad`` (less the first line's pad):
    an element as its name, an element set as its sorted names, any other value type
    as the object of its fields, a list, tuple, string, int or bool as JSON writes it.
    Each string is a name, letter or choice, with nothing to escape.  ``memo`` keeps
    each string, value type and element set, per pad and keyed on its type too: as
    tuples, ``sr(0) == Degree(1, 0)``."""
    if isinstance(value, str):
        key = value  # the same at any pad, and never equal to a tuple key
    elif isinstance(value, int):
        return str(value).lower()  # True -> true
    elif isinstance(value, (_Value, frozenset)):
        key = (type(value), value, pad)
    else:
        inner = pad + "  "
        if set(map(type, value)) == {str}:  # a word's letters: each distinct one rendered once
            for item in set(value):
                _text(item, inner, memo)
            return _block(list(map(memo.__getitem__, value)), pad)
        return _block([_text(item, inner, memo) for item in value], pad)
    if key not in memo:
        if isinstance(value, str):
            assert value.isprintable() and value.isascii() and not {'"', "\\"} & set(value)
            memo[key] = f'"{value}"'
        elif isinstance(value, GroupElement):
            memo[key] = f'"{format_element(value)}"'
        elif isinstance(value, frozenset):
            memo[key] = _block([f'"{format_element(g)}"' for g in sort_elements(value)], pad)
        else:
            pairs = zip(value._fields, value)
            texts = [f'"{k}": {_text(v, pad + "  ", memo)}' for k, v in pairs]
            memo[key] = _block(texts, pad, "{}")
    return memo[key]


def _json(value, pad: str, memo: dict) -> Iterator[str]:
    """``_text(value, pad, memo)`` in pieces to be joined as they come, with a dict
    written entry by entry and a function as a list streamed item by item: called
    with its items' pad and ``memo``, it yields each item's JSON text."""
    inner = pad + "  "
    if isinstance(value, dict):
        brackets = "{}"
        entries = ((f'"{key}": ', _json(item, inner, memo)) for key, item in value.items())
    elif callable(value):
        brackets, entries = "[]", ((item, ()) for item in value(inner, memo))
    else:
        yield _text(value, pad, memo)
        return
    comma = brackets[0]  # what goes before the first entry's line
    for head, rest in entries:  # an entry's first piece and the pieces after it
        yield f"{comma}\n{inner}{head}"
        yield from rest
        comma = ","
    yield f"\n{pad}{brackets[1]}" if comma == "," else brackets


def _chain_records(u, d, pad: str, memo: dict) -> Iterator[str]:
    """``chains --json``'s records, each the JSON text at ``pad`` of ``{"start",
    "steps", "degree"}``, from the walk of the text form: each step is rendered once
    per planned step and each degree once per walk state."""
    from .moment_graph import ChainStep, _walk

    inner = pad + "  "
    start = _text(u, inner, memo)
    record = _block(['"start": %s', '"steps": %s', '"degree": %s'], pad, "{}")
    walk = _walk(u, d, lambda alpha, w: (_text(ChainStep(alpha, w), inner + "  ", memo),),
                 lambda a, b: _text(Degree(a, b), inner, memo), ())
    for steps, degree in walk:
        yield record % (start, _block(steps, inner), degree)


def _graph_json(n: int) -> dict:
    """``graph --format json``'s result; its edges stream, each name and root rendered once."""
    from .moment_graph import graph_slice

    vertices, edges = graph_slice(n)

    def edge_texts(pad: str, memo: dict) -> Iterator[str]:
        # A name is one line: at the pad of the vertex list's items, that list's own text.
        names = {v: _text(v, pad, memo) for v in vertices}
        roots = {alpha: _text(alpha, pad + "  ", memo) for alpha in {a for _, a, _ in edges}}
        edge = _block(['"source": %s', '"target": %s', '"root": %s'], pad, "{}")
        for u, alpha, v in edges:
            yield edge % (names[u], names[v], roots[alpha])

    return {"vertices": vertices, "edges": edge_texts}
