"""The launcher that starts every fresh interpreter the tests run, and its module probe."""

import signal
import subprocess
import time

import pytest

import dcn
from launch import Child, probe, run

_SLEEP = "import time; time.sleep(60)"


def test_a_child_past_its_timeout_is_killed_and_reported_as_timed_out():
    began = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired):
        with Child(code=_SLEEP, timeout=0.5) as child:
            child.wait()
    assert time.monotonic() - began < 1.5
    assert (child.timed_out, child.returncode) == (True, -signal.SIGKILL)
    # A block that raises keeps its own exception, as the streaming tests' messages need.
    with pytest.raises(ZeroDivisionError):
        with Child(code=_SLEEP, timeout=0.2) as child:
            child.wait()
            1 / 0
    assert child.timed_out


def test_a_child_that_ends_in_time_is_not_timed_out():
    with Child(code="pass", timeout=5) as child:
        child.wait()
    assert (child.timed_out, child.returncode) == (False, 0)


def test_a_capped_child_fails_with_memory_error_past_its_cap():
    take = "bytearray({} * 2**20); print('taken')"
    done = run(code=take.format(200), cap_kib=150_000)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines()[-1] == "MemoryError"
    assert run(code=take.format(10), cap_kib=150_000).stdout == "taken\n"


def test_the_child_imports_the_tests_own_dcn():
    # Under tier-1 that is the checkout's src, which pyproject puts on the path.
    assert run(code="import dcn; print(dcn.__file__)").stdout == dcn.__file__ + "\n"


def test_argv_flags_and_env_reach_the_child(monkeypatch):
    done = run("length", "r(3)")  # the CLI entry by default
    assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")
    monkeypatch.setenv("DCN_LAUNCH_UNSET", "1")
    show = "import os, sys; print(sys.flags.no_site, *map(os.environ.get, sys.argv[1:]))"
    done = run("DCN_LAUNCH_SET", "DCN_LAUNCH_UNSET", code=show, flags=["-S"],
               env={"DCN_LAUNCH_SET": "2", "DCN_LAUNCH_UNSET": None})
    assert done.stdout == "1 2 None\n"


def test_the_probe_reports_the_modules_its_code_newly_loads():
    assert "json" in probe("import json")[3]
    status, out, err, loaded = probe("import sys, dcn.oracle; print(sys.flags.no_site)")
    assert (status, out, err) == (0, "1\n", "")
    assert [m for m in loaded if m.startswith("dcn.")] == [
        "dcn.dihedral", "dcn.moment_graph", "dcn.neighborhood", "dcn.oracle"
    ]
    assert "sys" not in loaded  # loaded before the code ran
    assert probe("raise SystemExit(3)") == (3, "", "", [])


@pytest.mark.parametrize("code, result", [
    pytest.param("raise SystemExit", (0, "", "", []), id="exit-none"),
    pytest.param("raise SystemExit('bye')", (1, "", "bye\n", []), id="exit-message"),
    pytest.param("import sys; sys.stderr.write('note\\n')", (0, "", "note\n", []), id="stderr"),
    pytest.param("print('a\\0b')", (0, "a\0b\n", "", []), id="nul-in-stdout"),
])
def test_the_probe_returns_the_codes_exit_status_and_streams_as_a_child_ends(code, result):
    # The module list follows the code's own stdout after the last NUL, and the code's
    # exit status and stderr are what a child running the code alone would give.
    assert probe(code) == result


def test_a_probe_whose_code_raises_fails_with_the_childs_stderr():
    with pytest.raises(AssertionError, match=r"(?s)Traceback.*ZeroDivisionError"):
        probe("print('before'); 1 / 0")
