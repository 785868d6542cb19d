"""Build reference.json: the corpus pools and the output of every pooled
polynomial under the current code.

    python3 perfbench/make_reference.py

The pools are generated from a fixed seed (sympy decides squarefreeness and
irreducibility, so the pools do not depend on the code under test). Each
pooled polynomial gets its reference output and its cost: its least time over
two calls, which the corpus draw uses to give every seed the same cost
profile. The reference outputs are what the benchmark compares every run
against, so rebuild them only on a commit whose outputs are trusted, and say
so.
"""
from __future__ import annotations

import itertools
import json
import random
import shutil
import sys
import time
from pathlib import Path

import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_SEED = 210307126
COST_RUNS = 2  # a pooled polynomial's cost is its least time over this many calls
ETHETA_DEGREE = 14  # the E_theta pool is the height-1 search records to this degree
X = sympy.Symbol("x")


def _poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _coeffs(expr):
    return [int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def _random(rng, degree, height):
    lead = rng.choice([c for c in range(-height, height + 1) if c])
    return [rng.randint(-height, height) for _ in range(degree)] + [lead]


def _chunks(pool, k):
    """Sort by degree and split into k consecutive groups of about equal size."""
    pool = sorted(pool, key=lambda c: (len(c), c))
    cut = [len(pool) * j // k for j in range(k + 1)]
    return [pool[cut[j]:cut[j + 1]] for j in range(k)]


def _distinct(rng, count, make, keep):
    out, seen = [], set()
    while len(out) < count:
        c = make(len(out))
        if tuple(c) not in seen and keep(c):
            seen.add(tuple(c))
            out.append(c)
    return out


def phi(n):
    return sympy.cyclotomic_poly(n, X)


def build_pools(search_records):
    rng = random.Random(POOL_SEED)
    # verify-mixed: 12 random squarefree polynomials per degree 1..30
    # (height <= 10), drawn 4 per degree; squarefree degree-10 height-1
    # palindromes; Lehmer's polynomial
    random_pool = []
    for d in range(1, 31):
        random_pool += _distinct(rng, 12, lambda _: _random(rng, d, 10), lambda c: _poly(c).is_sqf)
    palindromes = []
    for free in itertools.product((-1, 0, 1), repeat=5):
        c = [1, *free, *reversed(free[:-1]), 1]
        if _poly(c).is_sqf:
            palindromes.append(c)
    verify = {
        "random": _chunks(random_pool, 120),
        "palindrome": _chunks(palindromes, 10),
        "lehmer": [[[1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]]],
    }
    # analyze-structured: one of each three cyclotomic polynomials of
    # neighbouring degree, n <= 60; repeated unit-circle factors in groups of
    # about equal cost; random reducible and irreducible polynomials of small
    # height; known small-measure polynomials (the height-1 search records)
    by_degree = sorted(range(1, 61), key=lambda n: (sympy.totient(n), n))
    cyclotomic = [[_coeffs(phi(n)) for n in by_degree[j:j + 3]] for j in range(0, 60, 3)]
    repeated_groups = [
        [(1, 1), (2, 2)],
        [(1, 1, 2), (2, 2, 1)],
        [(1, 1, 3), (2, 2, 3)],
        [(1, 1, 4), (2, 2, 4)],
        [(1, 1, 5), (2, 2, 5)],
        [(1, 1, 6), (2, 2, 6)],
        [(1, 1, 8), (2, 2, 8)],
        [(4, 4), (1, 1, 2, 2)],
        [(3, 3), (6, 6)],
        [(3, 3, 1), (4, 4, 1)],
        [(3, 3, 6), (4, 4, 3)],
    ]
    repeated = [
        [_coeffs(sympy.Mul(*(phi(n) for n in factors))) for factors in group]
        for group in repeated_groups
    ]

    def product(_):
        return _coeffs(sympy.expand(
            _poly(_random(rng, rng.randint(1, 6), 2)).as_expr()
            * _poly(_random(rng, rng.randint(1, 6), 2)).as_expr()))

    reducible = _distinct(rng, 90, product, lambda c: _poly(c).is_sqf)
    irreducible = _distinct(rng, 90, lambda i: _random(rng, 2 + i % 11, 3),
                            lambda c: _poly(c).is_irreducible)
    analyze = {
        "cyclotomic": cyclotomic,
        "repeated": repeated,
        "reducible": _chunks(reducible, 30),
        "irreducible": _chunks(irreducible, 30),
        "etheta": _chunks([c for c, _ in search_records], 12),
    }
    return {"verify-mixed": verify, "analyze-structured": analyze}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import (
        COMMAND, SEARCH_DEGREE, Session, corpus_argv, environment, key, observe_analyze,
        observe_search, observe_verify, pin_hash_seed, search_argv,
    )

    pin_hash_seed()  # the costs must be taken as run.py runs

    workdir = ROOT / ".bench_work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    session = Session("search-h1", 0, {}, workdir)
    searches = {}
    for degree in (SEARCH_DEGREE, ETHETA_DEGREE):
        rc, out, dt = session.call(search_argv(degree))
        if rc != 0:
            raise SystemExit(f"search to degree {degree} exited {rc}")
        searches[degree] = observe_search(out)
        print(f"search to degree {degree}: {len(searches[degree])} records in {dt:.1f} s",
              file=sys.stderr)
    search = {"records": searches[SEARCH_DEGREE]}

    pools = build_pools(searches[ETHETA_DEGREE])
    sequences: list[list[str]] = []
    expected, cost = {}, {}
    for workload, kinds in pools.items():
        expected[workload], cost[workload] = {}, {}
        for kind, groups in kinds.items():
            t_kind = 0.0
            for group in groups:
                for coeffs in group:
                    path = workdir / "item.txt"
                    path.write_text(f"ref: {key(coeffs)}\n")
                    runs = [session.call(corpus_argv(COMMAND[workload], path))
                            for _ in range(COST_RUNS)]
                    rc, out, _ = runs[0]
                    cost[workload][key(coeffs)] = round(min(dt for _, _, dt in runs), 5)
                    t_kind += cost[workload][key(coeffs)]
                    if rc != 0:
                        raise SystemExit(f"{workload} {key(coeffs)} exited {rc}")
                    if workload == "verify-mixed":
                        obs = observe_verify(out)
                        ids = [tid for tid, _ in obs]
                        if ids not in sequences:
                            sequences.append(ids)
                        expected[workload][key(coeffs)] = [
                            sequences.index(ids), "".join(v for _, v in obs)]
                    else:
                        expected[workload][key(coeffs)] = observe_analyze(out)
            print(f"{workload} {kind}: {sum(map(len, groups))} pooled, {len(groups)} drawn, "
                  f"{t_kind:.1f} s for the pool", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    reference = {
        "environment": environment(),
        "pool_seed": POOL_SEED,
        "pools": pools,
        "theorem_sequences": sequences,
        "expected": expected,
        "cost_s": cost,
        "search": search,
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"done in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    sys.exit(code)
