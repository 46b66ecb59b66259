"""The dcn benchmark: one command for every workload, answers checked on every run.

    python3 bench/run.py --workload gamma-closed --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload chains-dump --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --self-check

Run from any directory; the program is imported from ``src/`` next to this
directory.  A run builds the workload's batch from ``--seed``, repeats the
batch for ``--seconds`` seconds (at least three passes) with tracing off, checks
every answer against ``refs.json``, and prints a short report followed by one
JSON line with the end-to-end metrics.  Each pass is pinned to the CPU that
is quickest when it starts, and each operation's time is its fastest pass:
the host only ever adds time to a sample, often for seconds at a stretch, so
the fastest pass is the steadiest reading of the program's own cost.  ``--trace 1`` instead makes the
traced run of ``tracing.py`` and reports the per-module metrics; it takes the
time its fixed passes take.  ``--self-check`` feeds corrupted answers
through the same checks and exits 1 unless every one is counted as failed.

Set-up (import ``dcn``, build the seeded inputs, one warm-up operation) is
timed in fresh child processes, so each repetition pays the cold import; the
median of the repetitions is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import sys
import time
from statistics import median
from typing import NamedTuple

from workloads import (
    WORKLOADS,
    MissingProgram,
    Workload,
    child_env,
    load_dcn,
    load_refs,
    run_python,
)

SETUP_REPEATS = 5
MIN_BATCHES = 3
SPIN_LOOPS = 50_000  # about 2 ms
QUICK_MARGIN = 1.1
PIN_WAIT_S = 0.5
PIN_EVERY_S = 0.2  # re-pin between operations at most this often

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "dihedral.mul_ns": "ns",
    "dihedral.explicit_length_ns": "ns",
    "dihedral.phi_ns": "ns",
    "dihedral.word_product.calls": "count",
    "dihedral.word_product.self_share": "ratio",
    "neighborhood.curve_neighborhood_ms.D4": "ms",
    "neighborhood.curve_neighborhood_ms.D16": "ms",
    "neighborhood.curve_neighborhood_ms.D64": "ms",
    "neighborhood.curve_neighborhood_ms.D256": "ms",
    "neighborhood.scaling_exponent": "exponent",
    "neighborhood.enumerate_up_to_length.elements": "count",
    "neighborhood.grid_share": "ratio",
    "moment_graph.reachable_set.calls": "count",
    "moment_graph.successors.calls": "count",
    "moment_graph.successors.edges": "count",
    "moment_graph.pareto_accept_ratio": "ratio",
    "moment_graph.roots_bounded.calls": "count",
    "moment_graph.reachable_set_ms.D4": "ms",
    "moment_graph.reachable_set_ms.D16": "ms",
    "moment_graph.reachable_set_ms.D64": "ms",
    "moment_graph.reachable_set.scaling_exponent": "exponent",
    "moment_graph.enumerate_chains.chains": "count",
    "moment_graph.enumerate_chains.self_s": "s",
    "moment_graph.format_chain.self_s": "s",
    "oracle.differential_check.cases_per_s": "1/s",
    "oracle.grid_share": "ratio",
    "oracle.jobs2_speedup": "x",
    "cli.interpreter_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.compute_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "cli.stdout_bytes.chains-dump": "bytes",
    "bench.trace_overhead_s": "s",
}


class Measurement(NamedTuple):
    samples: list[list[float]]  # seconds, one list per batch operation, one entry per pass
    failed: int
    peak_kb: int  # largest child RSS seen (subprocess workloads)

    @property
    def latencies(self) -> list[float]:
        return [dt for op in self.samples for dt in op]

    @property
    def passes(self) -> int:
        return len(self.samples[0])

    def floors(self) -> list[float]:
        """Each operation's fastest pass: the host only ever adds time to a sample."""
        return [min(op) for op in self.samples]


def setup(workload: Workload, seed: int):
    """Import dcn, build the seeded inputs, run one warm-up operation; timed."""
    t0 = time.perf_counter()
    dcn = load_dcn(with_cli=not workload.in_process)
    batch = workload.batch(dcn, load_refs(), random.Random(seed))
    env = child_env()
    workload.run(dcn, batch[0], env)
    return dcn, batch, env, time.perf_counter() - t0


def setup_probe(workload: Workload, seed: int, rss_batch: bool) -> None:
    """Child-process side of the set-up timing; optionally also runs one batch so
    its peak RSS is that of a process doing the workload's work."""
    dcn, batch, env, elapsed = setup(workload, seed)
    if rss_batch:
        for op in batch:
            workload.run(dcn, op, env)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": elapsed, "maxrss_kb": maxrss_kb}))


def _spin() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_LOOPS):
        x += i
    return time.perf_counter() - t0


@contextlib.contextmanager
def cpu_pinning():
    """Yield ``pin()``, which pins this process to the allowed CPU that runs a
    short fixed loop fastest; the original affinity is restored on exit.

    The host slows one CPU at a time, often for seconds on end.  An operation
    (or a set-up probe: child processes inherit the pin) that starts on a CPU
    that is quick at that moment is more likely to run unslowed, so ``pin()``
    waits up to ``PIN_WAIT_S`` for a CPU within ``QUICK_MARGIN`` of the
    quickest loop seen so far.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    quickest = float("inf")

    def pin() -> None:
        nonlocal quickest
        if not cpus:
            return
        deadline = time.perf_counter() + PIN_WAIT_S
        while True:
            timed = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                timed.append((min(_spin() for _ in range(3)), cpu))
            t, cpu = min(timed)
            quickest = min(quickest, t)
            if t <= QUICK_MARGIN * quickest or time.perf_counter() > deadline:
                break
            time.sleep(0.02)
        os.sched_setaffinity(0, {cpu})

    try:
        yield pin
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def probe_setups(workload: Workload, seed: int) -> list[dict]:
    results = []
    with cpu_pinning() as pin:
        for i in range(SETUP_REPEATS):
            cmd = [__file__, "--workload", workload.name, "--seed", str(seed)]
            cmd.append("--setup-probe")
            if workload.in_process and i == SETUP_REPEATS - 1:
                cmd.append("--rss-batch")
            pin()
            proc = run_python(cmd)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: python {' '.join(cmd)}")
            results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


def measure(dcn, workload: Workload, batch, env, seconds: float) -> Measurement:
    samples: list[list[float]] = [[] for _ in batch]
    failed = peak_kb = 0
    # Keep the collector off the benchmark's own objects (references, inputs),
    # so collections cost what they would cost the program alone.
    gc.freeze()
    start = pinned = time.perf_counter()
    with cpu_pinning() as pin:
        while len(samples[0]) < MIN_BATCHES or time.perf_counter() - start < seconds:
            for op, times in zip(batch, samples):
                if time.perf_counter() - pinned >= PIN_EVERY_S:
                    pin()
                    pinned = time.perf_counter()
                t0 = time.perf_counter()
                out = workload.run(dcn, op, env)
                times.append(time.perf_counter() - t0)
                failed += not workload.check(op, out)
                peak_kb = max(peak_kb, workload.maxrss_kb(out))
    return Measurement(samples, failed, peak_kb)


def tail_latency(latencies: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it: (ms, percentile, n)."""
    n = len(latencies)
    if n < 11:
        return None
    idx = n - 11
    return sorted(latencies)[idx] * 1e3, 100 * (idx + 1) / n, n


def machine() -> str:
    return (
        f"python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"{platform.system()} {platform.release()} {platform.machine()}"
    )


def result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )


def run_untraced(workload: Workload, seed: int, seconds: float) -> None:
    load_dcn(with_cli=not workload.in_process)  # fail fast when src/dcn is missing
    probes = probe_setups(workload, seed)
    dcn, batch, env, _ = setup(workload, seed)
    m = measure(dcn, workload, batch, env, seconds)
    peak_kb = probes[-1]["maxrss_kb"] if workload.in_process else m.peak_kb
    attempted = len(m.latencies)
    floors = m.floors()
    metrics = {
        "setup_s": median(p["setup_s"] for p in probes),
        "wall_s": sum(floors),
        "ops_per_s": len(floors) / sum(floors),
        "latency_p50_ms": median(floors) * 1e3,
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"workload {workload.name}  seed {seed}  batch {len(batch)} ops x {m.passes} passes")
    print(f"  median pass {median(map(sum, zip(*m.samples))):.6g} s (host noise included)")
    print(f"machine  {machine()}")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<16} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_frac':<16} {m.failed / attempted:.6g} ({m.failed} of {attempted})")
    tail = tail_latency(m.latencies)
    if tail:
        print(f"  {'latency_tail_ms':<16} {tail[0]:.6g} ms (p{tail[1]:.2f}, n={tail[2]})")
    print(result_line(m.failed == 0, attempted, m.failed, metrics, E2E_UNITS))


def run_traced(workload: Workload, seed: int) -> None:
    from tracing import trace_run

    dcn = load_dcn(with_cli=True)
    tally, repeatable, metrics = trace_run(dcn, load_refs(), workload.name, seed)
    if set(metrics) != set(LAYER_UNITS):
        raise RuntimeError(f"metric names differ: {sorted(set(metrics) ^ set(LAYER_UNITS))}")
    print(f"workload {workload.name}  seed {seed}  traced")
    print(f"machine  {machine()}")
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:<46} {metrics[name]:.6g} {unit}")
    correct = tally.failed == 0 and repeatable
    print(result_line(correct, tally.attempted, tally.failed, metrics, LAYER_UNITS))


class _Corrupted(Workload):
    """A workload whose every answer is replaced by a wrong one."""

    def __init__(self, inner: Workload) -> None:
        self.inner = inner
        self.in_process = inner.in_process

    def run(self, dcn, op, env):
        return self.inner.corrupt(self.inner.run(dcn, op, env))

    def check(self, op, out):
        return self.inner.check(op, out)

    def maxrss_kb(self, out):
        return self.inner.maxrss_kb(out)


def self_check(seed: int) -> int:
    """Exit status 0 iff clean answers pass and corrupted answers all fail."""
    refs, env, ok = load_refs(), child_env(), True
    for workload in WORKLOADS.values():
        dcn = load_dcn(with_cli=not workload.in_process)
        batch = workload.batch(dcn, refs, random.Random(seed))[:1]
        clean = measure(dcn, workload, batch, env, 0)
        bad = measure(dcn, _Corrupted(workload), batch, env, 0)
        clean_frac = clean.failed / len(clean.latencies)
        bad_frac = bad.failed / len(bad.latencies)
        passed = clean_frac == 0 and bad_frac == 1
        ok &= passed
        print(
            f"{workload.name:<14} failed_frac clean {clean_frac:g}  corrupted {bad_frac:g}"
            f"  {'ok' if passed else 'FAIL'}"
        )
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss-batch", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        if args.setup_probe:
            setup_probe(workload, args.seed, args.rss_batch)
        elif args.trace:
            run_traced(workload, args.seed)
        else:
            run_untraced(workload, args.seed, args.seconds)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
