"""The four benchmark workloads: seeded batches, one runner per operation, answer checks.

Every input a seed can produce is drawn from the pools in ``refs.json``, which
``make_refs.py`` filled once with reference answers: oracle answers for
``gamma-closed`` and the CLI's stdout bytes for ``cli-oneshot`` and
``chains-dump``.  Answers are checked against those stored references, never
against the closed form the benchmark is timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from typing import Any, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs.json"

# Same entry point as the installed ``dcn`` console script.
CLI_ENTRY = "import sys; from dcn.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 120

# gamma-closed: calls per batch at each degree D.  More calls at small D, so
# every rung is exercised while D = 256 still sets most of the batch time.
GAMMA_CALLS = {4: 48, 16: 24, 64: 6, 256: 2}

_ELEMENT = re.compile(r"(s?r)\((-?\d+)\)")


class MissingProgram(RuntimeError):
    """``src/dcn`` is absent from the checkout, or a different ``dcn`` was imported."""


def load_dcn(with_cli: bool = False):
    """Import the checkout's ``dcn`` (and ``dcn.cli``), refusing any other copy."""
    package_dir = SRC / "dcn"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgram(f"no dcn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dcn = importlib.import_module("dcn")
    if Path(dcn.__file__).resolve().parent != package_dir.resolve():
        raise MissingProgram(f"imported dcn from {dcn.__file__}, not {package_dir}")
    if with_cli:
        importlib.import_module("dcn.cli")
    return dcn


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DCN_COLOR", None)  # references were recorded without color
    env["PYTHONPATH"] = str(SRC)
    return env


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as f:
        return json.load(f)


def element(dcn, text: str):
    """Build an element from its ``r(k)`` / ``sr(k)`` text with the public constructors."""
    m = _ELEMENT.fullmatch(text)
    if m is None:
        raise ValueError(f"bad element text {text!r}")
    return (dcn.sr if m[1] == "sr" else dcn.r)(int(m[2]))


def element_text(g) -> str:
    return f"sr({g.k})" if g.is_reflection else f"r({g.k})"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliOutput(NamedTuple):
    returncode: int
    stdout: bytes
    maxrss_kb: int


def run_python(args: list[str], env: dict[str, str] | None = None) -> CliOutput:
    """One child interpreter; its peak RSS comes from its own rusage (``wait4``).

    The wait blocks instead of polling (``Popen.wait(timeout=...)`` sleeps in
    steps of up to 50 ms, which would inflate short timings); a timer kills a
    child that runs past ``OP_TIMEOUT_S``.
    """
    with subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=ROOT,
    ) as proc:
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, out, usage.ru_maxrss)


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> CliOutput:
    """One ``dcn`` subprocess."""
    return run_python(["-c", CLI_ENTRY, *argv], env)


def run_cli_in_process(dcn, argv: tuple[str, ...]) -> CliOutput:
    """The same command through ``dcn.cli.main`` in this process (traced runs)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dcn.cli.main(list(argv))
    return CliOutput(code, buf.getvalue().encode(), 0)


class Op(NamedTuple):
    args: tuple  # what the program receives
    expected: Any  # stored reference answer


class Workload:
    name = ""
    in_process = True

    def batch(self, dcn, refs: dict, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, dcn, op: Op, env: dict[str, str]) -> Any:
        raise NotImplementedError

    def run_in_process(self, dcn, op: Op) -> Any:
        return self.run(dcn, op, {})

    def check(self, op: Op, out: Any) -> bool:
        raise NotImplementedError

    def corrupt(self, out: Any) -> Any:
        """A wrong answer of the same shape, for the self-check."""
        raise NotImplementedError

    def maxrss_kb(self, out: Any) -> int:
        return 0


class GammaClosed(Workload):
    name = "gamma-closed"

    def batch(self, dcn, refs, rng):
        ops = []
        for D, calls in GAMMA_CALLS.items():
            pool = refs["gamma"][str(D)]
            for entry in rng.choices(pool, k=calls):
                args = (element(dcn, entry["u"]), dcn.Degree(*entry["d"]))
                ops.append(Op(args, frozenset(entry["answer"])))
        return ops

    def run(self, dcn, op, env):
        return dcn.curve_neighborhood(*op.args)

    def check(self, op, out):
        return frozenset(map(element_text, out)) == op.expected

    def corrupt(self, out):
        return frozenset(type(g)(g.is_reflection, g.k + 1) for g in out)


class VerifyGrid(Workload):
    name = "verify-grid"

    def batch(self, dcn, refs, rng):
        # The grid is the whole input, so the seed draws nothing here.
        ref = refs["verify"]
        args = (ref["max_u_length"], dcn.Degree(*ref["max_d"]))
        return [Op(args, (ref["cases_total"], ref["cases_total"], 0))]

    def run(self, dcn, op, env):
        return dcn.differential_check(*op.args, jobs=1)

    def check(self, op, out):
        return (out.cases_total, out.cases_passed, len(out.mismatches)) == op.expected

    def corrupt(self, out):
        return SimpleNamespace(
            cases_total=out.cases_total,
            cases_passed=out.cases_passed - 1,
            mismatches=(None,),
        )


class CliWorkload(Workload):
    in_process = False

    def run(self, dcn, op, env):
        return run_cli(op.args, env)

    def run_in_process(self, dcn, op):
        return run_cli_in_process(dcn, op.args)

    def check(self, op, out):
        return out.returncode == 0 and (len(out.stdout), digest(out.stdout)) == op.expected

    def corrupt(self, out):
        flipped = bytes([out.stdout[0] ^ 1]) + out.stdout[1:]
        return out._replace(stdout=flipped)

    def maxrss_kb(self, out):
        return out.maxrss_kb


def _cli_op(entry: dict) -> Op:
    return Op(tuple(entry["argv"]), (entry["bytes"], entry["sha256"]))


class CliOneshot(CliWorkload):
    name = "cli-oneshot"

    def batch(self, dcn, refs, rng):
        # One command of every kind and form per batch, so each batch has the
        # same mix and only the arguments vary with the seed.
        pools = refs["cli"]
        return [_cli_op(rng.choice(pools[kind])) for kind in sorted(pools)]


class ChainsDump(CliWorkload):
    name = "chains-dump"

    def batch(self, dcn, refs, rng):
        # One length-1 base point, s0 or s1: 10,159 chains and 1.3 MiB either
        # way, so every batch does the same work.  A one-operation batch gives
        # the run the most samples of it to take the fastest from.
        return [_cli_op(rng.choice(refs["chains"]["short"]))]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GammaClosed(), VerifyGrid(), CliOneshot(), ChainsDump())
}
