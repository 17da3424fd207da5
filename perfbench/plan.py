"""Seeded workload plans for the gamma0 benchmark.

A plan is plain JSON handed to the worker process: the requests it cycles
through, plus everything needed to rebuild them.  The same seed always gives
the same plan.

Query workloads serve a fixed level set: the candidate levels are sorted by
u(n) (the triangle count, which sets the cost of every construction), cut
into equal strata, and the middle level of each stratum is taken.  The seed
draws the requests: they come in rounds, each a seeded permutation of the
set, so every level recurs once per round (drawn with replacement across
rounds).  Both choices keep the mix of cheap and expensive levels identical
from seed to seed: with the level set itself drawn by the seed, the cost of a
run followed which levels were drawn, and throughput spread by about 19%
across five seeds on query-growth.  Sweep works the same way without
repeats: a fixed range of 64-level blocks from n = 100 000, swept once each
in a seeded order.
"""

from __future__ import annotations

import hashlib
import json
import random

import oracle

WORKLOADS = ("sweep", "query-triple", "query-growth", "query-exact")

SWEEP_START = 100_000
SWEEP_BLOCK = 64  # two chunks of the CLI's pool.map(chunksize=32)
SWEEP_SET = 40  # blocks swept in seeded order; a run that gets through them all carries on past them
TRIPLE_RANGE, TRIPLE_SET = (1000, 8000), 16
GROWTH_RANGE, GROWTH_SET, GROWTH_SMALLEST_MEDIANT = (1000, 4000), 18, 6
EXACT_RANGE = (37, 800)


def _stratified(levels: list[int], k: int) -> list[int]:
    by_cost = sorted(levels, key=lambda n: (oracle.invariants(n)["u"], n))
    m = len(by_cost)
    return [by_cost[(2 * i + 1) * m // (2 * k)] for i in range(k)]


def triple_candidates(lo: int, hi: int) -> list[int]:
    """Primes, prime squares and eligible twin products: the triple path."""
    return [n for n in range(lo, hi + 1) if oracle.prime_or_prime_square(n) or oracle.twin_pair(n)]


def growth_candidates(lo: int, hi: int) -> list[int]:
    """Levels where `generators` falls back to leftmost growth."""
    return [
        n
        for n in range(lo, hi + 1)
        if not oracle.prime_or_prime_square(n) and oracle.twin_pair(n) is None
    ]


def exact_candidates(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if oracle.prime_or_prime_square(n)]


def generators_request(n: int) -> list[str]:
    return ["generators", str(n), "--verify", "--json"]


def smallest_mediant_request(n: int) -> list[str]:
    return ["polygon", str(n), "--strategy", "smallest-mediant", "--json"]


def exact_request(n: int) -> list[str]:
    return ["bounds", str(n), "--exact", "--json"]


def make_plan(workload: str, seed: int, jobs: int) -> dict:
    """The seeded inputs of one run of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        order = list(range(SWEEP_SET))
        rng.shuffle(order)
        plan = {
            "start": SWEEP_START,
            "block": SWEEP_BLOCK,
            "order": order,
            "jobs": jobs,
            "warmup": ["sweep", str(SWEEP_START - 2), str(SWEEP_START - 1), "--jobs", str(jobs)],
        }
    elif workload == "query-triple":
        levels = _stratified(triple_candidates(*TRIPLE_RANGE), TRIPLE_SET)
        plan = {
            "requests": [generators_request(n) for n in levels],
            "warmup": generators_request(101),
        }
    elif workload == "query-growth":
        cands = growth_candidates(*GROWTH_RANGE)
        gens = _stratified(cands, GROWTH_SET)
        sm = _stratified(cands, GROWTH_SMALLEST_MEDIANT)
        plan = {
            "requests": [generators_request(n) for n in gens]
            + [smallest_mediant_request(n) for n in sm],
            "warmup": generators_request(100),
        }
    elif workload == "query-exact":
        levels = exact_candidates(*EXACT_RANGE)
        plan = {
            "requests": [exact_request(n) for n in levels],
            "warmup": exact_request(31),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
    plan.update(workload=workload, seed=seed)
    plan["inputs_sha256"] = hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()
    return plan

