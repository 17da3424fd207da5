"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/selftest.py``.

Runs every workload, untraced and traced, on a handful of small levels and
checks that each metric named in ``BENCHMARK.json`` is printed with its unit;
feeds one deliberately corrupted sweep row (a wrong k) through the checks and
checks that it is counted as a failed operation; checks that a repeated
request whose output changed is checked again and fails; and checks that the
benchmark refuses to run, without printing a result, where there are no
sources.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

JOBS = min(2, len(os.sched_getaffinity(0)))


def tiny_plans() -> list[dict]:
    def query(workload: str, requests: list[list[str]], warmup: list[str]) -> dict:
        return {"workload": workload, "seed": 0, "requests": requests, "warmup": warmup, "inputs_sha256": "tiny"}

    gens = lambda *ns: [["generators", str(n), "--verify", "--json"] for n in ns]  # noqa: E731
    return [
        {
            "workload": "sweep",
            "seed": 0,
            "start": 2000,
            "block": 64,
            "order": [1, 0],
            "jobs": JOBS,
            "warmup": ["sweep", "1998", "1999", "--jobs", str(JOBS)],
            "inputs_sha256": "tiny",
        },
        query("query-triple", gens(101, 103, 121, 143), gens(97)[0]),
        query(
            "query-growth",
            gens(100, 102, 104) + [["polygon", "100", "--strategy", "smallest-mediant", "--json"]],
            gens(98)[0],
        ),
        query("query-exact", [["bounds", str(n), "--exact", "--json"] for n in (37, 41, 43, 49)],
              ["bounds", "31", "--exact", "--json"]),
    ]


def check_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == table, f"BENCHMARK.json {key} disagrees with run.py: {set(declared) ^ set(table)}"
    for plan in tiny_plans():
        for trace in (False, True):
            setups, record = run.run_worker(ROOT, plan, seconds=0.5, trace=trace)
            assert record is not None, f"{plan['workload']} trace={trace}: worker failed"
            lines, result = run.report(plan, record, setups, trace, nproc=JOBS)
            table = run.PER_LAYER if trace else run.END_TO_END
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, lines
            assert {k: v["unit"] for k, v in result["metrics"].items()} == table, result["metrics"]
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            json.dumps(result, allow_nan=False)
            print(f"ok   {plan['workload']:<13} trace={int(trace)}  {len(table)} metrics with units")


def check_corrupted_row_counts() -> None:
    import gamma0.cli as cli

    plan = tiny_plans()[0]
    call = worker.make_call(cli)

    corrupted = []

    def corrupting_call(argv):
        dt, code, out, err = call(argv)
        if corrupted:
            return dt, code, out, err
        corrupted.append(argv)
        path = argv[argv.index("--output") + 1]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        row = next(i for i, line in enumerate(lines[1:], 1) if oracle.is_prime(int(line.split(",")[0])))
        cols = lines[row].split(",")
        cols[8] = str(int(cols[8]) + 1)  # the k column of a prime row
        lines[row] = ",".join(cols)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return dt, code, out, err

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    blocks = worker.sweep_blocks(plan, str(out_dir), 1)
    record = worker.measure(blocks, corrupting_call, worker.Checker(plan), lambda r: len(r["argvs"]) == 2)
    record["peak_rss_mb"] = worker.peak_rss_mb(0)
    lines, result = run.report(plan | {"inputs_sha256": "tiny"}, record | {"python": "", "numpy": ""}, [1.0], False, 1)
    assert result["failed"] == 1 and not result["correct"], lines
    assert result["metrics"]["ok_ratio"]["value"] == 1 - 1 / (2 * plan["block"]), result
    print(f"ok   corrupted k counted: failed {result['failed']} of {result['attempted']}, {record['failures'][0]}")


def check_corrupted_repeat_counts() -> None:
    """A repeated request whose output changed is checked again, not passed on its first verdict."""
    import gamma0.cli as cli

    argv = ["generators", "101", "--verify", "--json"]
    check = worker.Checker({"requests": [argv]})
    _, code, out, err = worker.make_call(cli)(argv)
    body, _, last = out.rstrip("\n").rpartition("\n")
    data = json.loads(body)
    data["n"] += 1
    corrupted = json.dumps(data) + "\n" + last + "\n"
    verdicts = [check(argv, code, text, err)[1] for text in (out, out, corrupted, out)]
    assert [bool(v) for v in verdicts] == [False, False, True, False], verdicts
    print(f"ok   corrupted repeat counted: {verdicts[2][0]}")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   refuses to run without sources (exit {proc.returncode})")


if __name__ == "__main__":
    check_corrupted_row_counts()
    check_corrupted_repeat_counts()
    check_refuses_without_sources()
    check_metrics_printed()
    print("selftest passed")
