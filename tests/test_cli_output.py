"""CLI stdout bytes against the stored benchmark references and README's examples,
and a closed pipe."""

import hashlib
import json
import os
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dcn.cli import main
from launch import Child

ROOT = Path(__file__).resolve().parents[1]
REFS = json.loads((ROOT / "bench" / "refs.json").read_text())
STORED = [
    pytest.param(entry, id=f"{kind}-{i}")
    for kind, entries in sorted({**REFS["cli"], "chains": REFS["chains"]["short"]}.items())
    for i, entry in enumerate(entries)
]


@pytest.mark.parametrize("entry", STORED)
def test_stdout_matches_stored_digest(entry, capsys):
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
def test_json_input_is_a_normalized_argv(entry, capsys):
    # README calls ``input`` the normalized arguments: run again from the echo
    # alone, the command prints the same bytes.
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
def test_readme_cli_example_prints_its_comment(argv, lines, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def _first_line_then_close(*argv):
    """Run dcn, read one line of its stdout, close the pipe: (line, stderr, exit code)."""
    with Child(*argv) as proc:
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
    with Child(*argv) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (err, proc.returncode) == (b"", 1)


def test_closed_pipe_closes_the_descriptor_it_opens():
    # In process, stdout is a pipe whose reader has left: the write fails, and stdout
    # is pointed at devnull through a descriptor that must be closed again.
    before = set(os.listdir("/dev/fd"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout, redirect_stdout(stdout):
        assert main(["length", "s0"]) == 1
    assert set(os.listdir("/dev/fd")) == before


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
    # The first write of each is larger than a pipe buffer (the JSON's first chunk
    # of 1,024 pieces is 140 KB, the text's one line 196 KB), and the reader cuts it
    # short after one byte.
    with Child(*argv) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode == 1


# 150,000 KiB of address space, as ``ulimit -v 150000``.  The two outputs below
# stream through it; a writer that held the payload and its text at once did not.
ADDRESS_SPACE_CAP_KIB = 150_000


@pytest.mark.parametrize(
    "argv, size, digest",
    [
        pytest.param(
            ["chains", "--u", "s0", "--d", "10,10", "--json"],
            30_996_098,
            "02180387121d4b6d9b9e735c997774e3783994f0184bd43e9a812b0a1ae6c9f0",
            id="chains-10,10-json",
        ),
        pytest.param(
            ["graph", "--max-length", "400", "--format", "json"],
            22_460_254,
            "4060b4fcc331ab4d5968b187991c843649c12281ef72f5fe77e5724e02584639",
            id="graph-400-json",
        ),
    ],
)
def test_large_json_streams_under_an_address_space_cap(argv, size, digest):
    hashed, seen = hashlib.sha256(), 0
    with Child(*argv, cap_kib=ADDRESS_SPACE_CAP_KIB) as proc:
        while chunk := proc.stdout.read(1 << 20):
            hashed.update(chunk)
            seen += len(chunk)
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")
    assert (seen, hashed.hexdigest()) == (size, digest)
