"""Hand-written mutants of ``dcn``, each run against the tests expected to judge it.

    python tests/mutants.py

For each mutant, a temporary copy of ``src``, ``tests``, ``bench``, ``README.md`` and
``pyproject.toml`` gets one text edit, which must match exactly once, and then runs
``python -m pytest -q -x -p no:cacheprovider <subset>`` with ``PYTHONPATH=src`` and
``PYTHONDONTWRITEBYTECODE=1``.  The outcome is "killed" if a test fails, "survives" if
all pass, and "slow" if the run outlasts ``TIMEOUT_S``: a mutant that only slows the
code is never counted as killed.  One row is printed per mutant (mutant, expected,
outcome, seconds), and the exit code is 1 if a mutant expected to be killed is not, or if
an edit no longer matches.  A mutant expected to survive passes when killed too: a test
that grew stronger is no failure.
The name has no ``test_`` prefix, so pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
TIMEOUT_S = 120

DIHEDRAL = "src/dcn/dihedral.py"
NEIGHBORHOOD = "src/dcn/neighborhood.py"
MOMENT_GRAPH = "src/dcn/moment_graph.py"
JSON_WRITER = "src/dcn/json_writer.py"

# (name, file, old text, new text, pytest arguments, expected outcome)
MUTANTS = [
    # The table cells of curve_neighborhood; one worked case per row kills each.
    ("gamma: a <= b -> a < b", NEIGHBORHOOD, "if a <= b:", "if a < b:",
     ["tests/test_neighborhood.py"], "killed"),
    ("gamma: k + a -> k + a + 1", NEIGHBORHOOD, "(reflection, k + a)",
     "(reflection, k + a + 1)", ["tests/test_neighborhood.py"], "killed"),
    ("gamma: a + 1 - k -> a - k", NEIGHBORHOOD, "(not reflection, a + 1 - k)",
     "(not reflection, a - k)", ["tests/test_neighborhood.py"], "killed"),
    ("gamma: not reflection -> reflection", NEIGHBORHOOD, "(not reflection, -k - b)",
     "(reflection, -k - b)", ["tests/test_neighborhood.py"], "killed"),
    ("gamma: k - b -> k + b", NEIGHBORHOOD, "(reflection, k - b)", "(reflection, k + b)",
     ["tests/test_neighborhood.py"], "killed"),
    ("gamma: b <= a -> b < a", NEIGHBORHOOD, "if b <= a:", "if b < a:",
     ["tests/test_neighborhood.py"], "killed"),
    ("gamma: a == b -> a <= b", NEIGHBORHOOD, "if a == b:", "if a <= b:",
     ["tests/test_neighborhood.py"], "killed"),
    # Degrees tied in a are no longer ordered by b; the tied-coordinate pin orders them.
    ("Degree.__lt__: a <= -> a <", DIHEDRAL, "self != other and self.a <= other.a",
     "self != other and self.a < other.a", ["tests/test_values.py"], "killed"),
    # Root subclasses Degree, so `root >= degree` tries the reflected Root.__ge__ first,
    # and this form recurses.
    ("Degree.__ge__: as other <= self", DIHEDRAL,
     "return self.a >= other.a and self.b >= other.b", "return other <= self",
     ["tests/test_values.py"], "killed"),
    # A Degree label whose counts name some reflection passes the edge check.
    ("Chain: drop the label check", MOMENT_GRAPH, "if not isinstance(step.root, Root):",
     "if False:", ["tests/test_moment_graph.py"], "killed"),
    # Equivalent: a reflection changes the parity of length, so l(u t) != l(u).
    ("_increasing_steps: > -> >=", MOMENT_GRAPH, "if explicit_length(v) > length_u:",
     "if explicit_length(v) >= length_u:",
     ["tests/test_moment_graph.py", "tests/test_chains.py", "tests/test_oracle.py"],
     "survives"),
    # Same chains, but each state's steps are found and its tokens made on every pop;
    # the plans-each-state-once pin counts _increasing_steps entries.
    ("_walk: plan every pop", MOMENT_GRAPH, "if plan is None:", "if True:",
     ["tests/test_chains.py"], "killed"),
    # Every chain is finished with the start's label, built anew per chain: the printed
    # chains leave the reference's, and the plans-each-state-once pin counts labels.
    ("_walk: finish with the start's label", MOMENT_GRAPH, "yield finish(steps, state[0])",
     "yield finish(steps, label(0, 0))", ["tests/test_chains.py"], "killed"),
    # Same fronts, but a state replaced by a smaller spend is still expanded; the
    # expands-each-vertex-once pin counts _increasing_steps entries.
    ("_pareto_fronts: expand stale pops", MOMENT_GRAPH, "if consumed not in frontiers[v]:",
     "if False:", ["tests/test_oracle.py"], "killed"),
    # Each u's edges leave root-table order; the stored graph replays pin the bytes.
    ("graph_slice: sorted( -> list(", MOMENT_GRAPH, "ranked = sorted(", "ranked = list(",
     ["tests/test_cli_output.py", "-k", "graph"], "killed"),
    ("differential_check: drop *row[b]", "src/dcn/oracle.py",
     "[*filed.get(d, ()), *row[b], *left]", "[*filed.get(d, ()), *left]",
     ["tests/test_oracle.py"], "killed"),
    # Elements one shorter than the top count as maximal; the presentation test alone
    # compares maximal_elements with the subword maxima of each reachable set.
    ("maximal_elements: == top -> >= top - 1", "src/dcn/oracle.py",
     "explicit_length(v) == top)", "explicit_length(v) >= top - 1)",
     ["tests/test_presentation.py"], "killed"),
    # Same bytes, but each letter is rendered once per occurrence: about three times
    # slower on `word 'r(524288)' --json`; the rendered-once pin counts _text calls.
    ("_text: skip the word-letter branch", JSON_WRITER,
     "if set(map(type, value)) == {str}:", "if False:",
     ["tests/test_cli.py", "-k", "word_json"], "killed"),
    # Each vertex is then named twice; the named-once pin counts format_element calls.
    ("_graph_json: vertices from vertices", JSON_WRITER,
     '{"vertices": lambda pad: names.values(),', '{"vertices": vertices,',
     ["tests/test_cli.py", "-k", "graph_json"], "killed"),
]


def run_mutant(path: str, old: str, new: str, subset: list[str]) -> str:
    """The outcome of ``subset`` on a copy of the checkout with ``old`` replaced by ``new``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, copy / name)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"stale: {text.count(old)} matches"
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *subset]
        try:
            done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "slow"
    return {0: "survives", 1: "killed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    wrong = 0
    print(f"{'mutant':<38} {'expected':<9} {'outcome':<9} seconds")
    for name, path, old, new, subset, expected in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(path, old, new, subset)
        print(f"{name:<38} {expected:<9} {outcome:<9} {time.perf_counter() - start:7.1f}",
              flush=True)
        wrong += outcome not in {expected, "killed"}
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
