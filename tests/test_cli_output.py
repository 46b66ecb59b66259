"""CLI stdout bytes against the stored benchmark references and README's examples,
and a closed pipe."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dcn
from dcn.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFS = json.loads((ROOT / "bench" / "refs.json").read_text())
STORED = [
    pytest.param(entry, id=f"{kind}-{i}")
    for kind, entries in sorted({**REFS["cli"], "chains": REFS["chains"]["short"]}.items())
    for i, entry in enumerate(entries)
]


@pytest.mark.parametrize("entry", STORED)
def test_stdout_matches_stored_digest(entry, capsys, monkeypatch):
    monkeypatch.delenv("DCN_COLOR", raising=False)
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert (len(out), hashlib.sha256(out).hexdigest()) == (entry["bytes"], entry["sha256"])


def _argv_from_input(echo: dict) -> list[str]:
    """The argv that a JSON payload's ``input`` names: the positionals ``g`` and ``h``
    first, then ``--name value`` for the rest (a degree as ``a,b``), then JSON output."""
    command = echo["command"]
    argv = [command, *(echo[key] for key in ("g", "h") if key in echo)]
    for key, value in echo.items():
        if key not in ("command", "g", "h"):
            text = f"{value['a']},{value['b']}" if isinstance(value, dict) else str(value)
            argv += [f"--{key.replace('_', '-')}", text]
    return argv + (["--format", "json"] if command == "graph" else ["--json"])


@pytest.mark.parametrize(
    "entry", [param for param in STORED if {"--json", "json"} & set(param.values[0]["argv"])]
)
def test_json_input_is_a_normalized_argv(entry, capsys, monkeypatch):
    # README calls ``input`` the normalized arguments: run again from the echo
    # alone, the command prints the same bytes.
    monkeypatch.delenv("DCN_COLOR", raising=False)
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    rebuilt = _argv_from_input(json.loads(out)["input"])
    assert (main(rebuilt), capsys.readouterr().out) == (code, out)


# Comments in README's CLI block that describe a command rather than show its stdout.
DESCRIPTIONS = {"every increasing chain within the budget", "moment-graph slice for Graphviz"}


def _readme_cli_claims():
    """(argv, stdout lines) of each line of README's CLI block that ends in a comment
    showing its stdout, with the ``#   ...`` lines that continue that stdout."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    claims = []
    for line in block.splitlines():
        if line.startswith("#   "):
            claims[-1][1].append(line[len("#   "):])
        elif line.startswith("dcn "):
            command, _, comment = line.partition("#")
            claims.append((shlex.split(command)[1:], [comment.strip()] if comment else []))
    return [(argv, out) for argv, out in claims if out and out[0] not in DESCRIPTIONS]


README_CLAIMS = _readme_cli_claims()


def test_readme_cli_block_makes_nine_claims():
    assert len(README_CLAIMS) == 9


@pytest.mark.parametrize(
    "argv, lines", [pytest.param(*claim, id=" ".join(claim[0])) for claim in README_CLAIMS]
)
def test_readme_cli_example_prints_its_comment(argv, lines, capsys, monkeypatch):
    monkeypatch.delenv("DCN_COLOR", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def _dcn(*argv):
    """Start dcn with ``argv``, its stdout and stderr each a pipe."""
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    env.pop("DCN_COLOR", None)
    entry = "import sys; from dcn.cli import main; sys.exit(main())"
    return subprocess.Popen(
        [sys.executable, "-c", entry, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def _first_line_then_close(*argv):
    """Run dcn, read one line of its stdout, close the pipe: (line, stderr, exit code)."""
    with _dcn(*argv) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    return line, err, proc.returncode


def test_closed_pipe_is_quiet():
    # The output (1.3 MiB) is far larger than a pipe buffer, so the write after
    # the reader leaves fails with EPIPE.
    first = b"sr(0)  degree 0,0\n"
    assert _first_line_then_close("chains", "--u", "s0", "--d", "9,9") == (first, b"", 1)


@pytest.mark.parametrize("argv", [["--help"], ["gamma", "--help"]])
def test_closed_pipe_is_quiet_for_help(argv):
    # The help fits in a pipe buffer, so the pipe is closed before dcn starts
    # writing: its first write, or the flush, fails.
    with _dcn(*argv) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (err, proc.returncode) == (b"", 1)


def test_closed_pipe_is_quiet_for_many_chunk_dot():
    # 1.6 MB in 40,404 lines, which to_dot yields one by one: 40 chunks.
    first = b"digraph moment_graph {\n"
    assert _first_line_then_close("graph", "--max-length", "200") == (first, b"", 1)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["graph", "--max-length", "40", "--format", "json"], id="graph-json"),
        pytest.param(["ad", "--u", "1", "--d", "5000,5000"], id="ad-text"),
    ],
)
def test_closed_pipe_is_quiet_when_one_write_is_cut_short(argv):
    # Both outputs (224 KB of JSON, 196 KB of text) are one line, so one write,
    # larger than a pipe buffer, which the reader cuts short after one byte.
    with _dcn(*argv) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode == 1
