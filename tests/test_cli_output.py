"""CLI stdout bytes against the stored benchmark references, and a closed pipe."""

import hashlib
import json
import os
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


def _first_line_then_close(*argv):
    """Run dcn, read one line of its stdout, close the pipe: (line, stderr, exit code)."""
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    env.pop("DCN_COLOR", None)
    entry = "import sys; from dcn.cli import main; sys.exit(main())"
    with subprocess.Popen(
        [sys.executable, "-c", entry, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    return line, err, proc.returncode


def test_closed_pipe_is_quiet():
    # The output (1.3 MiB) is far larger than a pipe buffer, so the write after
    # the reader leaves fails with EPIPE.
    first = b"sr(0)  degree 0,0\n"
    assert _first_line_then_close("chains", "--u", "s0", "--d", "9,9") == (first, b"", 1)


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
    env = {**os.environ, "PYTHONPATH": str(Path(dcn.__file__).parents[1])}
    entry = "import sys; from dcn.cli import main; sys.exit(main())"
    with subprocess.Popen(
        [sys.executable, "-c", entry, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode == 1
