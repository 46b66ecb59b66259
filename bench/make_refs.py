"""Fill ``refs.json``: the input pools the workloads draw from, with reference answers.

    python3 bench/make_refs.py

Run once, on the program whose answers are the reference; the stored answers
then judge every later version.  ``gamma-closed`` answers come from the
chain-search oracle (``curve_neighborhood_oracle``), which the benchmark never
times on that workload; the closed form must agree on every entry or this
script refuses to write the file.  ``cli-oneshot`` and ``chains-dump`` store
the length and SHA-256 of each command's stdout.  The oracle at D = 256 takes
a few seconds per entry, so the gamma pool runs on two worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys

from workloads import (
    GAMMA_CALLS,
    REFS_PATH,
    child_env,
    digest,
    element,
    element_text,
    load_dcn,
    run_cli,
)

POOL_SEED = 20260401
K_LIMIT = 2**31
GAMMA_BASE_POINTS = {4: 64, 16: 64, 64: 48, 256: 24}
CLI_VARIANTS = 12


def random_element(rng: random.Random, small: bool) -> str:
    k = rng.randint(-64, 64) if small else rng.randint(-K_LIMIT, K_LIMIT)
    return f"{rng.choice(('r', 'sr'))}({k})"


def gamma_entry(job: tuple[str, int, int]) -> dict:
    u_text, a, b = job
    dcn = load_dcn()
    u, d = element(dcn, u_text), dcn.Degree(a, b)
    oracle = dcn.curve_neighborhood_oracle(u, d)
    if dcn.curve_neighborhood(u, d) != oracle:
        raise SystemExit(f"closed form disagrees with the oracle at u={u_text} d={a},{b}")
    return {"u": u_text, "d": [a, b], "answer": sorted(map(element_text, oracle))}


def gamma_pool(rng: random.Random) -> dict[str, list[dict]]:
    jobs = []
    for D, count in GAMMA_BASE_POINTS.items():
        bases = ["r(0)", "sr(0)", "sr(1)"]
        bases += [random_element(rng, small=i % 2 == 0) for i in range(count - len(bases))]
        jobs += [(u, D, D - drop) for u in bases for drop in (0, 1)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        entries = pool.map(gamma_entry, jobs, chunksize=1)
    return {str(D): [e for e in entries if e["d"][0] == D] for D in GAMMA_CALLS}


def cli_entry(argv: list[str], env: dict[str, str]) -> dict:
    out = run_cli(tuple(argv), env)
    if out.returncode != 0:
        raise SystemExit(f"dcn {' '.join(argv)} exited {out.returncode}")
    return {"argv": argv, "bytes": len(out.stdout), "sha256": digest(out.stdout)}


def cli_pool(rng: random.Random, env: dict[str, str]) -> dict[str, list[dict]]:
    def elem(small: bool = False) -> str:
        if rng.random() < 0.2:
            return rng.choice(("1", "s0", "s1"))
        return random_element(rng, small=small or rng.random() < 0.5)

    def small_degree() -> str:
        return f"{rng.randint(0, 4)},{rng.randint(0, 4)}"

    makers = {
        "length": lambda: ["length", elem()],
        # ``word`` prints a word of length ~2|k| and runs out of memory at
        # |k| ~ 2**30 (unbounded work, an open defect), so it gets small k only.
        "word": lambda: ["word", elem(small=True)],
        "phi": lambda: ["phi", elem()],
        "mul": lambda: ["mul", elem(), elem()],
        "ad": lambda: ["ad", "--u", elem(), "--d", small_degree()],
        "gamma": lambda: ["gamma", "--u", elem(), "--d", small_degree()],
        "gamma-both": lambda: [
            "gamma", "--u", elem(), "--d", small_degree(), "--method", "both"
        ],
    }
    pools = {}
    for kind, make in makers.items():
        for form, extra in (("text", []), ("json", ["--json"])):
            pools[f"{kind}-{form}"] = [
                cli_entry(make() + extra, env) for _ in range(CLI_VARIANTS)
            ]
    verify = ["verify", "--max-u-length", "4", "--max-d", "3,3"]
    pools["verify-text"] = [cli_entry(verify, env)]
    pools["verify-json"] = [cli_entry(verify + ["--json"], env)]
    for fmt in ("dot", "json"):
        pools[f"graph-{fmt}"] = [
            cli_entry(["graph", "--max-length", "40", "--format", fmt], env)
        ]
    return pools


def chains_argv(u: str) -> list[str]:
    return ["chains", "--u", u, "--d", "9,9"]


def chains_pool(env: dict[str, str]) -> dict[str, list[dict]]:
    return {"short": [cli_entry(chains_argv(u), env) for u in ("s0", "s1")]}


def main() -> int:
    dcn = load_dcn()
    rng = random.Random(POOL_SEED)
    env = child_env()
    report = dcn.differential_check(10, dcn.Degree(8, 8))
    if not report.ok:
        raise SystemExit("differential_check(10, (8,8)) reports mismatches")
    refs = {
        "pool_seed": POOL_SEED,
        "gamma": gamma_pool(rng),
        "verify": {
            "max_u_length": 10,
            "max_d": [8, 8],
            "cases_total": report.cases_total,
        },
        "cli": cli_pool(rng, env),
        "chains": chains_pool(env),
    }
    with open(REFS_PATH, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
