"""The traced run: per-module metrics measured from outside the program.

Spans come from wrappers the benchmark puts on module attributes of ``dcn``
(the program itself is not edited).  Each wrapper records name, start, end and
parent span in memory, plus call counts and a few result sizes; all spans are
written out when the run ends.  A span's self time is its duration minus the
durations of its child spans (calls nest, and everything runs on one thread).

Functions too hot to wrap (``mul``, ``explicit_length``, ``phi``) get a
microbenchmark instead, and the degree ladders, the ``jobs=2`` comparison and
the CLI start/import split are timed untraced.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
import time
from array import array
from collections import Counter, defaultdict
from statistics import median

from workloads import (
    ROOT,
    WORKLOADS,
    Op,
    Workload,
    child_env,
    element,
    run_cli,
    run_python,
)

OUT_DIR = ROOT / ".bench_out"

# (module, attribute, span name, counter of result items or None).  Callers
# look these names up in the module's globals at call time, so replacing the
# attribute intercepts every call.  Names a later version of the program no
# longer has are skipped, and their counts read 0.
TARGETS = [
    ("dcn", "curve_neighborhood", "neighborhood.curve_neighborhood", None),
    ("dcn", "differential_check", "oracle.differential_check", None),
    ("dcn.cli", "main", "cli.main", None),
    ("dcn.oracle", "curve_neighborhood", "neighborhood.curve_neighborhood", None),
    ("dcn.oracle", "curve_neighborhood_oracle", "oracle.curve_neighborhood_oracle", None),
    ("dcn.oracle", "reachable_set", "moment_graph.reachable_set", None),
    ("dcn.moment_graph", "successors", "moment_graph.successors", "edges"),
    ("dcn.moment_graph", "roots_bounded", "moment_graph.roots_bounded", None),
    ("dcn.neighborhood", "ad_set", "neighborhood.ad_set", None),
    (
        "dcn.neighborhood",
        "enumerate_up_to_length",
        "neighborhood.enumerate_up_to_length",
        "elements",
    ),
    ("dcn.neighborhood", "word_product", "dihedral.word_product", None),
    ("dcn.cli", "enumerate_chains", "moment_graph.enumerate_chains", "chains"),
    ("dcn.cli", "format_chain", "moment_graph.format_chain", None),
]

NEIGHBORHOOD_LADDER = {4: 21, 16: 9, 64: 5, 256: 3}  # D -> calls timed
REACHABLE_LADDER = (4, 16, 64)  # same calls; the oracle at D = 256 takes seconds
JOBS_PAIRS = 2
MICRO_CALLS = 20000
MICRO_REPEATS = 7


class Tracer:
    """Spans kept in flat arrays (name id, parent index, start, end in ns)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, items: str | None = None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        calls = f"{name}.calls"
        items_key = f"{name}.{items}"
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            counts[calls] += 1
            if items is None:
                return result
            if hasattr(result, "__len__"):
                counts[items_key] += len(result)
                return result
            return self._counted(result, items_key)

        return traced

    def _counted(self, iterable, key: str):
        # A lazy result is counted as its consumer draws items; the work then
        # lands in the consumer's span, not in the call that returned it.
        for item in iterable:
            self.counts[key] += 1
            yield item

    def times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """Total and self seconds per span name, and the summed root-span time."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        children = [0] * len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += durations[i]
        roots = 0
        for i, d in enumerate(durations):
            name = self.names[self.name_id[i]]
            total[name] += d / 1e9
            own[name] += (d - children[i]) / 1e9
            if self.parent[i] < 0:
                roots += d
        return total, own, roots / 1e9

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "counts": dict(self.counts),
        }


@contextlib.contextmanager
def traced(tracer: Tracer):
    saved = []
    try:
        for module_name, attr, name, items in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, items))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Tally:
    """Operations attempted and failed across the traced run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def run_pass(dcn, workload: Workload, batch, tally: Tally, tracer: Tracer | None = None) -> float:
    """One in-process pass over the batch; returns the summed operation time."""
    spent = 0.0
    for op in batch:
        t0 = time.perf_counter()
        out = workload.run_in_process(dcn, op)
        spent += time.perf_counter() - t0
        tally.record(workload.check(op, out))
        if tracer is not None and not workload.in_process:
            tracer.counts["stdout_bytes"] += len(out.stdout)
    return spent


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x: the scaling exponent."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def ns_per_call(fn, args_list) -> float:
    samples = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter_ns()
        for args in args_list:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(args_list))
    return median(samples)


def dihedral_micro(dcn, rng: random.Random) -> dict[str, float]:
    def rand():
        return (dcn.sr if rng.random() < 0.5 else dcn.r)(rng.randint(-(2**31), 2**31))

    singles = [(rand(),) for _ in range(MICRO_CALLS)]
    pairs = [(rand(), rand()) for _ in range(MICRO_CALLS)]
    return {
        "dihedral.mul_ns": ns_per_call(dcn.mul, pairs),
        "dihedral.explicit_length_ns": ns_per_call(dcn.explicit_length, singles),
        "dihedral.phi_ns": ns_per_call(dcn.phi, singles),
    }


def ladders(dcn, refs, rng: random.Random, tally: Tally) -> dict[str, float]:
    """Untraced per-call times of the closed form and of ``reachable_set`` at d = (D, D)."""
    gamma = WORKLOADS["gamma-closed"]
    out: dict[str, float] = {}
    rungs: dict[int, list[Op]] = {}
    for D, calls in NEIGHBORHOOD_LADDER.items():
        pool = [e for e in refs["gamma"][str(D)] if e["d"] == [D, D]]
        rungs[D] = [
            Op((element(dcn, e["u"]), dcn.Degree(D, D)), frozenset(e["answer"]))
            for e in rng.choices(pool, k=calls)
        ]
        samples = []
        for op in rungs[D]:
            t0 = time.perf_counter()
            answer = dcn.curve_neighborhood(*op.args)
            samples.append(time.perf_counter() - t0)
            tally.record(gamma.check(op, answer))
        out[f"neighborhood.curve_neighborhood_ms.D{D}"] = median(samples) * 1e3
    ds = list(NEIGHBORHOOD_LADDER)
    out["neighborhood.scaling_exponent"] = slope(
        ds, [out[f"neighborhood.curve_neighborhood_ms.D{D}"] for D in ds]
    )
    for D in REACHABLE_LADDER:
        samples = []
        for op in rungs[D]:
            t0 = time.perf_counter()
            dcn.reachable_set(*op.args)
            samples.append(time.perf_counter() - t0)
        out[f"moment_graph.reachable_set_ms.D{D}"] = median(samples) * 1e3
    out["moment_graph.reachable_set.scaling_exponent"] = slope(
        REACHABLE_LADDER, [out[f"moment_graph.reachable_set_ms.D{D}"] for D in REACHABLE_LADDER]
    )
    return out


def oracle_jobs(dcn, refs, tally: Tally) -> dict[str, float]:
    """``differential_check`` on the verify grid at jobs=1 and jobs=2, alternating."""
    verify = WORKLOADS["verify-grid"]
    (op,) = verify.batch(dcn, refs, random.Random(0))
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(JOBS_PAIRS):
        for jobs in (1, 2):
            t0 = time.perf_counter()
            report = dcn.differential_check(*op.args, jobs=jobs)
            times[jobs].append(time.perf_counter() - t0)
            tally.record(verify.check(op, report))
    one, two = median(times[1]), median(times[2])
    return {
        "oracle.differential_check.cases_per_s": op.expected[0] / one,
        "oracle.jobs2_speedup": one / two,
    }


def cli_phases(dcn, refs, seed: int, tally: Tally) -> dict[str, float]:
    """Interpreter start, ``dcn.cli`` import, and the compute left in an invocation.

    Each command of the cli-oneshot batch runs right after a bare start and a
    bare import, and the phases are medians of those paired differences, so
    the host's slow speed drift cancels.
    """
    env = child_env()
    cli = WORKLOADS["cli-oneshot"]
    starts, imports, computes = [], [], []
    for op in cli.batch(dcn, refs, random.Random(seed)):
        times = []
        for args in (["-c", "pass"], ["-c", "import dcn.cli"], None):
            t0 = time.perf_counter()
            out = run_python(args, env) if args else run_cli(op.args, env)
            times.append(time.perf_counter() - t0)
            if args and out.returncode != 0:
                raise RuntimeError(f"python {' '.join(args)} failed")
        tally.record(cli.check(op, out))
        starts.append(times[0])
        imports.append(times[1] - times[0])
        computes.append(times[2] - times[1])
    return {
        "cli.interpreter_start_ms": median(starts) * 1e3,
        "cli.import_ms": median(imports) * 1e3,
        "cli.compute_ms": median(computes) * 1e3,
    }


def module_metrics(passes: dict[str, Tracer]) -> dict[str, float]:
    """Per-module numbers from one traced pass of each workload."""
    out: dict[str, float] = {}
    g, v = passes["gamma-closed"], passes["verify-grid"]
    cli, c = passes["cli-oneshot"], passes["chains-dump"]

    _, g_self, g_root = g.times()
    out["dihedral.word_product.calls"] = g.counts["dihedral.word_product.calls"]
    out["dihedral.word_product.self_share"] = g_self["dihedral.word_product"] / g_root
    out["neighborhood.enumerate_up_to_length.elements"] = g.counts[
        "neighborhood.enumerate_up_to_length.elements"
    ]

    v_total, _, v_root = v.times()
    reach = v.counts["moment_graph.reachable_set.calls"]
    popped = v.counts["moment_graph.successors.calls"]
    edges = v.counts["moment_graph.successors.edges"]
    out["moment_graph.reachable_set.calls"] = reach
    out["moment_graph.successors.calls"] = popped
    out["moment_graph.successors.edges"] = edges
    # Every state reachable_set enqueues is popped once, and all but the start
    # state were enqueued by an edge, so accepted edges = popped - starts.
    out["moment_graph.pareto_accept_ratio"] = (popped - reach) / edges if edges else 0.0
    out["moment_graph.roots_bounded.calls"] = v.counts["moment_graph.roots_bounded.calls"]
    out["neighborhood.grid_share"] = v_total["neighborhood.curve_neighborhood"] / v_root
    out["oracle.grid_share"] = v_total["oracle.curve_neighborhood_oracle"] / v_root

    _, c_self, _ = c.times()
    out["moment_graph.enumerate_chains.chains"] = c.counts["moment_graph.enumerate_chains.chains"]
    out["moment_graph.enumerate_chains.self_s"] = c_self["moment_graph.enumerate_chains"]
    out["moment_graph.format_chain.self_s"] = c_self["moment_graph.format_chain"]
    out["cli.stdout_bytes"] = cli.counts["stdout_bytes"]
    out["cli.stdout_bytes.chains-dump"] = c.counts["stdout_bytes"]
    return out


def traced_passes(dcn, refs, seed: int, tally: Tally) -> tuple[dict[str, Tracer], dict[str, float]]:
    """One traced in-process pass of every workload's batch."""
    passes: dict[str, Tracer] = {}
    walls: dict[str, float] = {}
    for name, workload in WORKLOADS.items():
        batch = workload.batch(dcn, refs, random.Random(seed))
        with traced(Tracer()) as tracer:
            walls[name] = run_pass(dcn, workload, batch, tally, tracer)
        passes[name] = tracer
    return passes, walls


def count_metrics(metrics: dict[str, float]) -> dict[str, int]:
    """The work counters, which must repeat exactly (ratios and times are floats)."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def trace_run(dcn, refs, workload_name: str, seed: int) -> tuple[Tally, bool, dict[str, float]]:
    """Every per-module metric, whichever workload is named, plus that workload's
    tracing overhead: its traced pass time minus its untraced pass time."""
    tally = Tally()
    rng = random.Random(seed)
    metrics: dict[str, float] = {}
    metrics.update(dihedral_micro(dcn, rng))
    metrics.update(ladders(dcn, refs, rng, tally))
    metrics.update(oracle_jobs(dcn, refs, tally))
    metrics.update(cli_phases(dcn, refs, seed, tally))

    workload = WORKLOADS[workload_name]
    untraced = run_pass(dcn, workload, workload.batch(dcn, refs, random.Random(seed)), tally)
    runs = [traced_passes(dcn, refs, seed, tally) for _ in range(2)]
    counts = [count_metrics(module_metrics(passes)) for passes, _ in runs]
    repeatable = counts[0] == counts[1]
    if not repeatable:
        print(f"counts differ between two traced runs: {counts}", file=sys.stderr)
    passes, _ = runs[1]
    metrics.update(module_metrics(passes))
    metrics["bench.trace_overhead_s"] = median(w[workload_name] for _, w in runs) - untraced

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload_name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({name: tracer.dump() for name, tracer in passes.items()}, f)
    return tally, repeatable, metrics
