"""One workload run in a fresh interpreter: ``python3 perfbench/worker.py PLAN OUT``.

The process imports ``gamma0.cli``, serves the plan's untimed warm-up request
and prints ``READY`` (the parent times set-up up to that line).  It then calls
``gamma0.cli.main`` in-process, one request at a time (a closed loop with one
client), captures stdout and stderr, checks every output with ``oracle`` and
writes its record to OUT as JSON.  Only the ``main`` call is timed; checking
happens between calls.  With ``--setup-only`` it exits after ``READY``; with
``--trace`` it serves every request untraced and then under the span tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import sys
import time

import oracle
from spans import Tracer

HARD_CAP_S = 120  # stop measuring here even if fewer rounds than MIN_ROUNDS ran
MIN_ROUNDS = 3  # every query request is served at least this often (best-of-R)


def make_call(cli):
    def call(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)  # looked up per call, so the tracer's wrapper is seen
        except (Exception, SystemExit) as exc:  # MemoryError under the address-space cap lands here
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()

    return call


class Checker:
    """Output checks for every request kind a plan can contain.

    A query whose exit code and output are byte-identical to an earlier one of
    the same request gets that request's verdict again instead of a second
    oracle pass, so more of a run goes to serving requests; any other output
    is checked in full.
    """

    def __init__(self, plan: dict) -> None:
        self.verdicts: dict[tuple, list[str]] = {}
        self.totients = oracle.Totients()
        self.cashew = {
            int(argv[1]): oracle.is_cashew(int(argv[1]))
            for argv in plan.get("requests", ())
            if argv[0] == "bounds"
        }

    def __call__(self, argv: list[str], code: int, out: str, err: str) -> tuple[int, list[str]]:
        """(operations in the request, one reason per failed operation)."""
        if argv[0] == "sweep":
            levels = range(int(argv[1]), int(argv[2]) + 1)
            path = argv[argv.index("--output") + 1]
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(path)
                return len(levels), oracle.check_sweep(levels, code, text, err, self.totients)
            except (OSError, ValueError, KeyError) as exc:
                return len(levels), [f"sweep output unreadable: {type(exc).__name__}: {exc}"] * len(levels)
        key = (tuple(argv), code, hashlib.sha256(f"{out}\0{err}".encode()).digest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check_query(argv, code, out, err)
        return 1, self.verdicts[key]

    def _check_query(self, argv: list[str], code: int, out: str, err: str) -> list[str]:
        n = int(argv[1])
        try:
            if argv[0] == "generators":
                reason = oracle.check_generators(n, code, out, err)
            elif argv[0] == "polygon":
                reason = oracle.check_polygon(n, code, out, err)
            else:
                reason = oracle.check_bounds(n, code, out, err, self.cashew[n], self.totients)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        return [f"{' '.join(argv)}: {reason}"] if reason else []


def old_collections() -> int:
    """Collections of generations 1 and 2 so far."""
    return sum(g["collections"] for g in gc.get_stats()[1:])


def measure(batches, call, check, stop) -> dict:
    """Run batches of requests, checking each output, until ``stop(record)``.

    ``stop`` is asked after every request, so a run may end inside a batch;
    ``batches`` counts the whole ones.
    """
    rec = {"latency_s": [], "ops": 0, "attempted": 0, "failed": 0, "failures": [], "argvs": [], "batches": 0}
    seen: set[tuple] = set()
    repeats = 0
    young_mark = None
    t0 = time.perf_counter()
    requests = ((argv, i == len(batch)) for batch in batches for i, argv in enumerate(batch, 1))
    for argv, ends_batch in requests:
        # Free the previous request's cyclic garbage, so that this one's peak
        # RSS is its own.  While that request ran no collection of generation
        # 1 or 2, all its garbage is still young and a young collection frees
        # it.  A full collection also walks every imported module's objects:
        # 6-14 ms on a 2-vCPU VM, more than the median query-exact request.
        gc.collect(2 if old_collections() != young_mark else 1)
        young_mark = old_collections()
        dt, code, out, err = call(argv)
        ops, bad = check(argv, code, out, err)
        rec["latency_s"].append(dt)
        rec["argvs"].append(argv)
        rec["attempted"] += ops
        rec["failed"] += len(bad)
        rec["failures"].extend(bad[: max(0, 5 - len(rec["failures"]))])
        repeats += tuple(argv) in seen
        seen.add(tuple(argv))
        rec["batches"] += ends_batch
        rec["elapsed_s"] = time.perf_counter() - t0
        if stop(rec) or rec["elapsed_s"] >= HARD_CAP_S:
            break
    rec["ops"] = rec["attempted"] - rec["failed"]
    rec["busy_s"] = sum(rec["latency_s"])
    rec["requests"] = len(rec["latency_s"])
    rec["repeat_share"] = repeats / max(1, len(rec["latency_s"]))
    return rec


def query_rounds(plan: dict):
    rng = random.Random(f"rounds:{plan['workload']}:{plan['seed']}")
    while True:
        order = [list(argv) for argv in plan["requests"]]
        rng.shuffle(order)
        yield order


def sweep_blocks(plan: dict, out_dir: str, jobs: int):
    start, block, order = plan["start"], plan["block"], plan["order"]
    path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
    for i in itertools.chain(order, itertools.count(len(order))):
        lo = start + i * block
        yield [["sweep", str(lo), str(lo + block - 1), "--jobs", str(jobs), "--output", path]]


def with_jobs(argv: list[str], jobs: int) -> list[str]:
    i = argv.index("--jobs") + 1
    return argv[:i] + [str(jobs)] + argv[i + 1 :]


def trace_run(batches, call, check, seconds: float, jobs: int, spans_path: str) -> dict:
    """Serve each request untraced and then traced, back to back, for ``seconds``.

    Pairing the two calls of a request keeps the machine's speed drift out of
    the tracing overhead.  With ``jobs`` (sweep) each block is first swept
    through the pool, and the untraced and traced sweeps run serially
    (``--jobs 1``) so that every row's spans are recorded in this process.
    The spans are written to ``spans_path`` at the end.
    """
    tracer = Tracer()
    busy = {"pool": 0.0, "untraced": 0.0, "traced": 0.0}
    rec = {"attempted": 0, "failed": 0, "failures": []}
    t0 = time.perf_counter()
    for request, argv in enumerate(itertools.chain.from_iterable(batches)):
        if time.perf_counter() - t0 >= seconds:
            break
        serial = with_jobs(argv, 1) if jobs else argv
        for mode, args in ([("pool", argv)] if jobs else []) + [("untraced", serial), ("traced", serial)]:
            gc.collect()
            if mode == "traced":
                tracer.request = request
                tracer.install()
                try:
                    dt, code, out, err = call(args)
                finally:
                    tracer.uninstall()
            else:
                dt, code, out, err = call(args)
            ops, bad = check(args, code, out, err)
            busy[mode] += dt
            rec["attempted"] += ops
            rec["failed"] += len(bad)
            rec["failures"].extend(bad[: max(0, 5 - len(rec["failures"]))])
    layers = tracer.summary()
    layers["trace.overhead_ratio"] = busy["traced"] / busy["untraced"] - 1
    layers["trace.untraced_s"] = busy["untraced"]
    layers["trace.traced_s"] = busy["traced"]
    layers["cli.pool_jobs"] = jobs
    layers["cli.pool_serial_s"] = busy["traced"] if jobs else 0.0
    layers["cli.pool_wall_s"] = busy["pool"]
    layers["cli.pool_efficiency"] = busy["traced"] / (jobs * busy["pool"]) if jobs else 0.0
    rec["layers"] = layers
    tracer.dump(spans_path)
    return rec


def peak_rss_mb(jobs: int) -> float:
    """Own peak RSS plus ``jobs`` times the largest reaped child's (the sweep pool)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + jobs * child) / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("out")
    ap.add_argument("--seconds", type=float, help="measuring time; unused with --setup-only")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    import gamma0.cli as cli

    call = make_call(cli)
    warm = plan["warmup"]
    _, code, _, err = call(warm)
    if code != 0:
        print(f"warm-up {warm} failed: {err.strip()}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.dirname(os.path.abspath(args.out))
    check = Checker(plan)
    sweep = plan["workload"] == "sweep"
    jobs = plan.get("jobs", 1)
    seconds = args.seconds
    batches = sweep_blocks(plan, out_dir, jobs) if sweep else query_rounds(plan)
    record: dict = {"workload": plan["workload"], "trace": args.trace}
    if not args.trace:
        stop = (lambda r: r["elapsed_s"] >= seconds) if sweep else (
            lambda r: r["elapsed_s"] >= seconds and r["batches"] >= MIN_ROUNDS
        )
        run = measure(batches, call, check, stop)
        record.update(run, peak_rss_mb=peak_rss_mb(jobs if sweep else 0))
    else:
        spans = os.path.join(out_dir, f"spans-{plan['workload']}.npy")
        record.update(trace_run(batches, call, check, seconds, jobs if sweep else 0, spans))
    import numpy

    record.update(python=platform.python_version(), numpy=numpy.__version__, jobs=jobs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
