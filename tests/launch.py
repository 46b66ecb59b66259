"""Fresh interpreters on the tests' own ``dcn``, bounded in time and, if asked, in memory.

``Child`` runs ``sys.executable [flags] -c <code, by default dcn's CLI> [argv]`` with the
directory of the ``dcn`` imported here as ``PYTHONPATH``, plus ``env`` (``None`` unsets),
its address space capped at ``cap_kib`` KiB, as by ``ulimit -v``, before ``code`` runs.
``probe`` runs a snippet in such a child and also reports the modules the snippet loaded.
"""

import os
import subprocess
import sys
import threading

import dcn

_ENTRY = "import sys; from dcn.cli import main; sys.exit(main())"
_CAP = "import resource; resource.setrlimit(resource.RLIMIT_AS, ({0}, {0}))\n"
_PATH = os.path.dirname(os.path.dirname(dcn.__file__))
# The snippet runs in its own namespace; if it ends, by ``SystemExit`` too, a NUL and
# the modules it newly loaded follow its stdout.  If it raises, its traceback ends the child.
_PROBE = """\
import sys
before, status = set(sys.modules), 0
try:
    exec({!r}, {{"__name__": "__main__"}})
except SystemExit as stop:
    status = stop.code
print(end="\\0" + " ".join(sorted(set(sys.modules) - before)))
sys.exit(status)
"""


class Child(subprocess.Popen):
    """A context manager, its stdout and stderr each a pipe.  Once ``timeout`` seconds pass,
    a watchdog kills the child and sets ``timed_out``; leaving the block then raises
    ``subprocess.TimeoutExpired``, unless the block raised first."""

    def __init__(
        self, *argv, code=_ENTRY, flags=(), env=None, cap_kib=None, timeout=60, text=False
    ):
        code = code if cap_kib is None else _CAP.format(cap_kib * 1024) + code
        env = {**os.environ, "PYTHONPATH": _PATH, **(env or {})}
        super().__init__(
            [sys.executable, *flags, "-c", code, *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={k: v for k, v in env.items() if v is not None}, text=text,
        )
        self.timed_out = False
        self._watchdog = threading.Timer(timeout, self._expire)
        self._watchdog.start()

    def _expire(self):
        self.timed_out = True
        self.kill()

    def __exit__(self, exc_type, *exc):
        try:
            super().__exit__(exc_type, *exc)  # closes the pipes, then waits
        finally:
            self._watchdog.cancel()
        if self.timed_out and exc_type is None:
            raise subprocess.TimeoutExpired(self.args, self._watchdog.interval)


def run(*argv, text=True, **options) -> subprocess.CompletedProcess:
    """Run a ``Child`` to its end; unlike a ``Child``, its output is text by default."""
    with Child(*argv, text=text, **options) as child:
        out, err = child.communicate()
    return subprocess.CompletedProcess(child.args, child.returncode, out, err)


def probe(code: str) -> tuple[int, str, str, list[str]]:
    """Run ``code`` in a ``Child`` under ``python -S``, where no ``site`` runs and so no
    ``.pth`` file preloads a module, and return its exit code, stdout, stderr and the
    modules it newly loaded, sorted.  A ``code`` that raises fails here, with its stderr."""
    done = run(code=_PROBE.format(code), flags=["-S"])
    out, ended, loaded = done.stdout.rpartition("\0")
    assert ended, done.stderr
    return done.returncode, out, done.stderr, loaded.split()
