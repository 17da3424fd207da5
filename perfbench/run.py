"""gamma0 benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  Each run builds the seeded plan for
one workload (``plan.py``), times set-up in fresh interpreters, then runs the
workload in one more fresh interpreter (``worker.py``) under an address-space
cap and with ``GAMMA0_THREADS`` removed from its environment.  Every output is
checked against the paper's identities (``oracle.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run (``spans.py``).  Human-readable
provenance and tables come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Raw records and spans are
left in ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import plan as plans  # noqa: E402
from spans import MODULES  # noqa: E402

SETUP_PROBES = 4  # set-up-only interpreters before and after the workload's own
ADDRESS_SPACE_CAP = 2 << 30  # bytes per process; a blow-up fails requests, not the machine
RUN_TIMEOUT_S = 170  # all workers of one run are killed after this

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"{m}.errors": "count" for m in MODULES},
    "triples.triples_counted": "count",
    "polygon.classify_cells": "cells-computed",
    "polygon.cusps_built": "count",
    "polygon.max_den_digits": "digits",
    "psl2.edge_transports": "count",
    "psl2.entry_digits": "digits",
    "generators.generators_emitted": "count",
    "generators.verify_failures": "count",
    "invariants.exact_searches": "count",
    "invariants.exact_bounds_tried": "count",
    "invariants.exact_useful_ratio": "ratio",
    "farey.hull_cusps": "count",
    "cli.pool_efficiency": "ratio",
    "cli.pool_jobs": "count",
    "cli.pool_serial_s": "s",
    "cli.pool_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.spans": "count",
}


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GAMMA0_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_one(root: Path, args: list[str], deadline: float) -> tuple[float | None, int]:
    """Run one worker to completion; (seconds from spawn to READY or None, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=_child_env(root),
        stdout=subprocess.PIPE,
        text=True,
        preexec_fn=_cap_address_space,
        start_new_session=True,  # its own process group, so pool workers die with it
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), kill_group)
    timer.start()
    try:
        ready = time.perf_counter() - t0 if proc.stdout.readline().strip() == "READY" else None
        proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
        proc.wait()
    return ready, proc.returncode


def run_worker(root: Path, plan: dict, seconds: float, trace: bool) -> tuple[list[float], dict | None]:
    """Run the workload in a fresh worker and time set-up in fresh interpreters.

    Returns (set-up samples, the worker's record), or a None record when a worker
    fails.  Set-up probes run before and after the workload, so that their median
    spans more than one stretch of the machine's speed.
    """
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    plan_path = out_dir / f"plan-{plan['workload']}.json"
    out_path = out_dir / f"record-{plan['workload']}.json"
    plan_path.write_text(json.dumps(plan))
    out_path.unlink(missing_ok=True)
    workload = ["--seconds", str(seconds)] + (["--trace"] if trace else [])
    runs = [["--setup-only"]] * SETUP_PROBES + [workload] + [["--setup-only"]] * SETUP_PROBES
    setups: list[float] = []
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    for extra in runs:
        ready, code = run_one(root, [str(plan_path), str(out_path), *extra], deadline)
        if ready is None or code != 0:
            print(f"worker exited with {code} (ready: {ready is not None})", file=sys.stderr)
            return setups, None
        setups.append(ready)
    return setups, json.loads(out_path.read_text())


def best_of(record: dict) -> tuple[list[float], list[int]]:
    """Best-of latency of each request class, and operations per request of it.

    The machine's speed drifts with its other tenants (stretches of 5-60 s up
    to 1.9x slower were measured), so every timing is a best-of-R.  A query
    request is served once per round and keeps its fastest round.  Sweep
    blocks (64 consecutive levels each) never repeat and differ a little in
    cost, so they form one class that reads the mean of its fastest quarter:
    the quarter leaves out the contended stretches, the mean evens out the
    blocks' own costs.
    """
    samples: dict[str, list[float]] = {}
    ops: dict[str, int] = {}
    for argv, dt in zip(record["argvs"], record["latency_s"]):
        key = "sweep" if argv[0] == "sweep" else " ".join(argv)
        samples.setdefault(key, []).append(dt)
        ops[key] = int(argv[2]) - int(argv[1]) + 1 if argv[0] == "sweep" else 1
    best = [
        statistics.fmean(sorted(dts)[: max(1, len(dts) // 4)]) if key == "sweep" else min(dts)
        for key, dts in samples.items()
    ]
    return best, [ops[k] for k in samples]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(record: dict, setups: list[float]) -> dict[str, float]:
    best, ops = best_of(record)
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": sum(ops) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": p90(best) * 1e3,
        "peak_rss_mb": record["peak_rss_mb"],
        "ok_ratio": record["ops"] / record["attempted"],
    }


def describe(plan: dict, record: dict, nproc: int) -> list[str]:
    if plan["workload"] == "sweep":
        inputs = (
            f"levels {plan['start']}.. in blocks of {plan['block']}, block order "
            + " ".join(map(str, plan["order"]))
            + f" then onwards, --jobs {plan['jobs']}"
        )
    else:
        inputs = "level set " + " ".join(a[1] if a[0] != "polygon" else a[1] + "sm" for a in plan["requests"])
    lines = [
        f"workload {plan['workload']}  seed {plan['seed']}  inputs sha256 {plan['inputs_sha256'][:16]}",
        inputs,
        f"nproc {nproc}  python {record['python']}  numpy {record['numpy']}",
        f"attempted {record['attempted']}  failed {record['failed']}  "
        f"fail_ratio {record['failed'] / max(1, record['attempted']):.4g}",
    ]
    if "latency_s" in record:
        best, _ = best_of(record)
        lines.append(
            f"requests {record['requests']} in {record['batches']} rounds  operations {record['ops']}  "
            f"repeat share {record['repeat_share']:.3f}  busy {record['busy_s']:.2f} s  "
            f"elapsed {record['elapsed_s']:.2f} s"
        )
        lines.append(
            f"latency samples {len(best)} (best of each request class), {sum(x > p90(best) for x in best)} above p90"
        )
    lines += [f"FAIL {f}" for f in record["failures"]]
    return lines


def layer_table(layers: dict) -> list[str]:
    rows = [f"{'module':<11}{'self_s':>10}{'calls':>10}{'errors':>8}"]
    for m in MODULES:
        rows.append(f"{m:<11}{layers[m + '.self_s']:>10.4f}{layers[m + '.calls']:>10}{layers[m + '.errors']:>8}")
    rows += [
        f"{k} = {v:.6g}"
        for k, v in layers.items()
        if k.split(".")[1] not in ("self_s", "calls", "errors")
    ]
    return rows


def report(plan: dict, record: dict, setups: list[float], trace: bool, nproc: int):
    """(human-readable lines, the JSON result) for one finished run."""
    lines = describe(plan, record, nproc)
    if trace:
        values, units = record["layers"], PER_LAYER
        lines += layer_table(values)
    else:
        values, units = end_to_end(record, setups), END_TO_END
        lines += [f"{name:<18}{value:>14.6g} {units[name]}" for name, value in values.items()]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "gamma0" / "cli.py").is_file():
        print(f"no gamma0 sources under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    plan = plans.make_plan(args.workload, args.seed, jobs=min(2, nproc))
    setups, record = run_worker(root, plan, args.seconds, bool(args.trace))
    if record is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    lines, result = report(plan, record, setups, bool(args.trace), nproc)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
