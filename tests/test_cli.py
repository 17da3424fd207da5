"""CLI behavior: output formats, exit codes, sweep determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

import gamma0.cli
import gamma0.invariants
import gamma0.triples
from gamma0.cli import main
from gamma0.generators import independent_system
from gamma0.invariants import prime_or_prime_square
from gamma0.polygon import grow_maximal, polygon_from_json
from gamma0.triples import build_optimal_polygon, build_twin_polygon
from triples_reference import scan_certificates, scan_triple_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "invariants", "17")
    assert code == 0
    assert "index = 18" in out and "genus = 1" in out and "u = 6" in out
    code, out, _ = run_cli(capsys, "invariants", "17", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"index": 18, "v_inf": 2, "v2": 2, "v3": 0, "genus": 1, "u": 6}


def test_polygon_text_output(capsys):
    code, out, _ = run_cli(capsys, "polygon", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cusps : ∞ 0 1/4 1/3 1/2 1"
    assert lines[1] == "denoms: 0 1 4 3 2 1"
    assert lines[2] == "labels: 1 2 2 3 3 1"


def test_polygon_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "polygon", "17", "--strategy", "smallest-mediant", "--json")
    assert code == 0
    P = polygon_from_json(json.loads(out))
    assert P == grow_maximal(17, "smallest-mediant")


def test_polygon_svg(tmp_path, capsys):
    path = tmp_path / "poly.svg"
    code, out, _ = run_cli(capsys, "polygon", "17", "--strategy", "optimal", "--svg", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "path" in text


def test_polygon_twin_strategy_rejects_non_twin(capsys):
    code, _, err = run_cli(capsys, "polygon", "35", "--strategy", "twin")
    assert code == 0  # 35 = 5*7 is eligible
    code, _, err = run_cli(capsys, "polygon", "33", "--strategy", "twin")
    assert code == 2
    assert "error" in err


def test_generators_verify(capsys):
    code, out, _ = run_cli(capsys, "generators", "41", "--verify")
    assert code == 0
    assert "verify: ok" in out
    code, out, _ = run_cli(capsys, "generators", "41", "--json")
    data = json.loads(out)
    assert data["n"] == 41
    assert any(g["order"] == 2 for g in data["generators"])  # v2(41) = 2


@pytest.mark.parametrize("n", [21, 55, 65])
def test_generators_verify_twin_with_q_above_2p(capsys, n):
    # (3,7), (5,11), (5,13): valid systems with some entries at 3n
    code, out, err = run_cli(capsys, "generators", str(n), "--verify")
    assert code == 0, err
    assert "verify: ok" in out


@pytest.mark.parametrize(
    "n,build",
    [
        (2, build_optimal_polygon),  # one even side
        (3, build_optimal_polygon),  # one odd side
        (13, build_optimal_polygon),
        (21, lambda n: build_twin_polygon(3, 7)),  # q > 2p
        (7081, lambda n: build_twin_polygon(73, 97)),
        (144, grow_maximal),  # leftmost growth: entries of hundreds of digits
        (1950, grow_maximal),
    ],
)
def test_generators_json_is_the_indent_2_encoding(capsys, n, build):
    code, out, _ = run_cli(capsys, "generators", str(n), "--json")
    assert code == 0
    assert out == json.dumps(independent_system(build(n)).to_json(), indent=2) + "\n"


def test_bounds_text_and_exact(capsys):
    code, out, _ = run_cli(capsys, "bounds", "41")
    assert code == 0
    assert out.strip() == "lower 6 (not exact), upper 7"
    code, out, _ = run_cli(capsys, "bounds", "41", "--exact", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 41, "lower": 6, "lower_is_exact": False, "upper": 7, "exact": 7}


def test_bounds_exact_default_budget_at_composite_level(capsys):
    code, out, err = run_cli(capsys, "bounds", "22", "--exact", "--json")
    assert code == 0, err
    assert json.loads(out)["exact"] == 11


_EXACT_CLI_UNDER_512MIB = """
import contextlib, io, json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from gamma0.cli import main
for n in (72, 100, 144, 841, 961):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bounds", str(n), "--exact", "--json"]) == 0, n
    print(json.loads(out.getvalue())["exact"])
"""


def test_bounds_exact_at_composite_levels_under_512mib():
    # these levels ran the search out of a 2 GiB address space; the cover
    # bound and the witness polygon now settle them without searching
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_CLI_UNDER_512MIB],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["36", "50", "72", "32", "35"]


def test_bounds_exact_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "bounds", "41", "--exact", "--max-bound", "6")
    assert code == 1
    assert "exhausted" in out
    assert "no maximal polygon" in err


# sha256 over (exit code, stdout, stderr) of each request in turn, recorded
# before the cover walk stopped at the --max-bound budget
EXACT_REQUESTS = [("bounds", str(n), "--exact", "--json") for n in range(2, 201)] + [
    ("bounds", str(n), "--exact", "--max-bound", str(b), "--json")
    for n, b in ((30, 14), (30, 15), (30, 16), (41, 6), (173, 12), (1500, 40), (3003, 60))
]
EXACT_DIGEST = "28903d0ad3468e086bdcd72aad4681c20c2d0c75dcac92fef71914ae30162677"


def test_bounds_exact_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in EXACT_REQUESTS:
        digest.update(repr(run_cli(capsys, *argv)).encode())
    assert digest.hexdigest() == EXACT_DIGEST


# the same over n = 201..400, recorded before the search started at the
# cusp-divisor bound n/p, and over n = 401..1000, recorded before the exact
# search was written as one ladder; with EXACT_DIGEST they pin every n ≤ 1000
EXACT_DIGEST_201_400 = "90b27cb339fbc631b18c78860b1c054d1ace4fa5f8355a65f693b4a2b42027c5"
EXACT_DIGEST_401_1000 = "4afdda43d303d7399c07a4c6fcf3f9f78e9771bd800ebaad757191010d78780b"


@pytest.mark.parametrize(
    "levels,expected",
    [(range(201, 401), EXACT_DIGEST_201_400), (range(401, 1001), EXACT_DIGEST_401_1000)],
    ids=["201-400", "401-1000"],
)
def test_bounds_exact_output_over_a_range_is_byte_identical(capsys, levels, expected):
    digest = hashlib.sha256()
    for n in levels:
        digest.update(repr(run_cli(capsys, "bounds", str(n), "--exact", "--json")).encode())
    assert digest.hexdigest() == expected


# recorded before the exact search certified m from one witness orbit: every
# prime and prime square in (1000, 20000], and every n ≤ 1500 at the budgets
# ⌊√n⌋, ⌊√(4n/3)⌋ − 1 and ⌊√(4n/3)⌋
EXACT_DIGEST_PRIMES_TO_20000 = "6ec111029f602c2e2527ec8d0bbdec59d77cd2438c4caa2e2e47e1b1df248f31"
EXACT_DIGEST_BUDGETS_TO_1500 = "bf37c15e457964966470760e37e5e753e1b187eb90368cd36a6c034471fa9686"


def test_bounds_exact_output_at_primes_and_prime_squares_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for n in range(1001, 20001):
        if prime_or_prime_square(n):
            digest.update(repr(run_cli(capsys, "bounds", str(n), "--exact", "--json")).encode())
    assert digest.hexdigest() == EXACT_DIGEST_PRIMES_TO_20000


def test_bounds_exact_output_under_a_budget_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for n in range(2, 1501):
        ceiling = isqrt(4 * n // 3)
        for b in (isqrt(n), ceiling - 1, ceiling):
            argv = ("bounds", str(n), "--exact", "--max-bound", str(b), "--json")
            digest.update(repr(run_cli(capsys, *argv)).encode())
    assert digest.hexdigest() == EXACT_DIGEST_BUDGETS_TO_1500


# the same over the triple-level requests: `generators N --verify --json` at
# the 16 levels the benchmark serves from the prime, prime-square and twin
# path, then the optimal polygon at 4483 and the twin polygon at 1147 = 31·37;
# recorded before the per-side constructors and passes were made cheaper
TRIPLE_LEVELS = (1193, 1559, 1951, 2347, 2731, 3203, 3617, 4049, 4483, 4951, 5407, 5843, 6301, 6779, 7081, 7741)
TRIPLE_REQUESTS = [("generators", str(n), "--verify", "--json") for n in TRIPLE_LEVELS] + [
    ("polygon", "4483", "--strategy", "optimal", "--json"),
    ("polygon", "1147", "--strategy", "twin", "--json"),
]
TRIPLE_DIGEST = "eead0b72076e091cd1190c32efe3e91a709c923f218a9c6385a95282c48ac4d8"


def test_triple_level_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in TRIPLE_REQUESTS:
        digest.update(repr(run_cli(capsys, *argv)).encode())
    assert digest.hexdigest() == TRIPLE_DIGEST


# the same over the composite requests: `generators N --verify --json` at the
# 18 composite non-twin levels the benchmark serves from leftmost growth in
# [1000, 4000], then the smallest-mediant polygon at 6 of them; recorded
# before the classified polygon kept the partner table of its gluing pass
GROWTH_LEVELS = (1018, 1401, 1540, 1611, 1617, 1954, 1962, 2189, 2312, 2718, 2919, 2955, 3042, 3053, 3153, 3686, 3740, 3873)
GROWTH_SMALLEST_MEDIANT_LEVELS = (1401, 1540, 1617, 3042, 3153, 3873)
GROWTH_REQUESTS = [("generators", str(n), "--verify", "--json") for n in GROWTH_LEVELS] + [
    ("polygon", str(n), "--strategy", "smallest-mediant", "--json") for n in GROWTH_SMALLEST_MEDIANT_LEVELS
]
GROWTH_DIGEST = "4617c20e69824304391e130789ef10eab21d242ac7eb1ce627f60c68d6f900c6"


def test_composite_level_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for argv in GROWTH_REQUESTS:
        digest.update(repr(run_cli(capsys, *argv)).encode())
    assert digest.hexdigest() == GROWTH_DIGEST


def test_bounds_max_bound_needs_exact(capsys):
    code, out, err = run_cli(capsys, "bounds", "41", "--max-bound", "6")
    assert code == 2
    assert out == ""
    assert "--max-bound needs --exact" in err


@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_bounds_rejects_negative_budgets(capsys, monkeypatch, budget):
    # checked before any work, as --jobs is: no bound is computed
    calls = []
    monkeypatch.setattr(gamma0.cli, "m_bounds", calls.append)
    code, out, err = run_cli(capsys, "bounds", "30", "--exact", "--max-bound", budget)
    assert (code, out, err) == (2, "", "error: --max-bound must be >= 0\n")
    assert calls == []


def test_cashew_output(capsys):
    code, out, _ = run_cli(capsys, "cashew", "41")
    assert code == 0
    assert json.loads(out) == {"s": 5, "t": 3, "a": 7, "b": 2}
    code, out, _ = run_cli(capsys, "cashew", "37")
    assert code == 0
    assert json.loads(out) is None
    code, out, _ = run_cli(capsys, "cashew", "97", "--all-certificates")
    assert len(json.loads(out)) == 2


def test_rejects_bad_level(capsys):
    with pytest.raises(SystemExit):
        main(["invariants", "1"])  # argparse rejects levels < 2
    capsys.readouterr()


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "12", "--filter", "primes")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["2", "3", "5", "7", "11"]
    assert rows[0]["index"] == "3" and rows[0]["u"] == "1"
    assert all(r["error"] == "" for r in rows)


def test_sweep_json_parallel_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["sweep", "10", "60", "--format", "json", "--exact-m", "10"]
    assert main(args + ["--output", str(serial)]) == 0
    assert main(args + ["--jobs", "3", "--output", str(parallel)]) == 0
    capsys.readouterr()
    assert json.loads(serial.read_text()) == json.loads(parallel.read_text())


def test_sweep_at_benchmark_scale(capsys):
    code, out, err = run_cli(capsys, "sweep", "100000", "100015", "--jobs", "2", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(100000, 100016))
    for r in rows:
        assert r["error"] == ""
        assert r["k"] == scan_triple_count(r["n"]), r["n"]
        assert r["cashew"] == bool(scan_certificates(r["n"])), r["n"]


# sha256 of stdout, as the per-level sweep printed it before k(n) was
# counted a chunk at a time
SWEEP_DIGESTS = [
    (("sweep", "2", "3000"), "79d877bceebfb2c384a835efda903eaf4292191626e1236771fe2d55476923d0"),
    (
        ("sweep", "100000", "100255", "--jobs", "2"),
        "3765c3755c15d5be59a26321da9781020907d47c931668fbc1a9c05851b8d644",
    ),
    (
        ("sweep", "2", "500", "--filter", "primes", "--format", "json"),
        "4627080512141f76216005654664478ef6d9a6838b833b862da310838441ed9d",
    ),
    # recorded before the cover walk stopped at the exact-m budget
    (
        ("sweep", "1480", "1500", "--exact-m", "40"),
        "35c965695720cd03aa617890524b95e697337666a229a010c3bf35354050af66",
    ),
    # recorded before the head scan paired each triple with its mirror
    (
        ("sweep", "1000000", "1000031"),
        "a12d01f1f82848fa7073839f5e4c6b30e570d41f9edccc4a821a843cbcea39a6",
    ),
    # recorded before the exact search certified m from one witness orbit
    (
        ("sweep", "100000", "100015", "--exact-m", "400"),
        "b965f262a4970d4e16f3a5b4e3eafb5a130a841fa6f7854e241cb5aba314985b",
    ),
]


@pytest.mark.parametrize("argv,digest", SWEEP_DIGESTS, ids=[" ".join(a) for a, _ in SWEEP_DIGESTS])
def test_sweep_output_is_byte_identical(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_evaluates_the_invariants_once_per_row(capsys, monkeypatch):
    calls = []
    invariants_of = gamma0.invariants.group_invariants

    def counted(n):
        calls.append(n)
        return invariants_of(n)

    monkeypatch.setattr(gamma0.invariants, "group_invariants", counted)
    monkeypatch.setattr(gamma0.cli, "group_invariants", counted)
    code, out, err = run_cli(capsys, "sweep", "2", "200", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)
    assert all(row["error"] == "" for row in rows)
    assert calls == [row["n"] for row in rows] == list(range(2, 201))


def test_sweep_jobs_do_not_change_the_bytes(capsys):
    outs = [run_cli(capsys, "sweep", "100000", "100100", "--jobs", jobs) for jobs in ("1", "2")]
    assert outs[0] == outs[1]


def test_sweep_error_stays_on_its_level(capsys, monkeypatch):
    # one level of the first chunk fails inside the batched k(n) scan; its
    # row reports the error and the chunk's other rows keep their values
    code, out, _ = run_cli(capsys, "sweep", "90", "130", "--format", "json")
    assert code == 0
    expected = json.loads(out)
    head_sums = gamma0.triples._free_head_sums

    def failing(n):
        if n == 101:
            raise RuntimeError("injected fault")
        return head_sums(n)

    monkeypatch.setattr(gamma0.triples, "_free_head_sums", failing)
    code, out, _ = run_cli(capsys, "sweep", "90", "130", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(90, 131))
    for row, want in zip(rows, expected):
        if row["n"] == 101:
            assert row["error"] == "RuntimeError: injected fault"
            assert "k" not in row
        else:
            assert row == want


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test; os.fork still forks."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_starts_no_more_workers_than_chunks(capsys, monkeypatch, forks):
    # this process computes one share, so n shares fork n - 1 children
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    serial = run_cli(capsys, "sweep", "2", "100")
    assert forks == []
    assert run_cli(capsys, "sweep", "2", "100", "--jobs", "64") == serial
    assert len(forks) == 3  # 99 levels make 4 chunks of at most 32
    code, _, err = run_cli(capsys, "sweep", "2", "33", "--jobs", "2")  # one chunk
    assert code == 0, err
    assert len(forks) == 3
    assert_no_child_left()


@pytest.mark.parametrize("cpus,children", [(2, 1), (None, 0)])
def test_sweep_workers_are_capped_at_the_cpu_count(capsys, monkeypatch, forks, cpus, children):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial = run_cli(capsys, "sweep", "2", "200")
    assert run_cli(capsys, "sweep", "2", "200", "--jobs", "10000") == serial
    assert len(forks) == children
    assert_no_child_left()


def test_sweep_worker_death_raises_and_leaves_no_child(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, chunk = os.getpid(), gamma0.cli._sweep_chunk

    def dying(task):
        if os.getpid() != parent:
            os._exit(3)
        return chunk(task)

    monkeypatch.setattr(gamma0.cli, "_sweep_chunk", dying)
    with pytest.raises(RuntimeError, match="share 0"):
        main(["sweep", "2", "100", "--jobs", "2"])
    assert_no_child_left()


def test_sweep_failure_in_own_share_kills_the_workers(monkeypatch, forks):
    # the children would sleep for a minute; they are killed instead
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    parent = os.getpid()

    class Boom(Exception):
        pass

    def failing(task):
        if os.getpid() != parent:
            time.sleep(60)
        raise Boom

    monkeypatch.setattr(gamma0.cli, "_sweep_chunk", failing)
    t0 = time.monotonic()
    with pytest.raises(Boom):
        main(["sweep", "2", "100", "--jobs", "3"])
    assert time.monotonic() - t0 < 30
    assert len(forks) == 2
    assert_no_child_left()


def test_sweep_failed_fork_leaves_no_child(monkeypatch, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    counted = os.fork

    def second_fails():
        if forks:
            raise OSError("injected fork failure")
        return counted()

    monkeypatch.setattr(os, "fork", second_fails)
    code = main(["sweep", "2", "100", "--jobs", "3"])
    assert code == 2
    assert len(forks) == 1
    assert_no_child_left()


_INHERITED_BUFFERS = """
import atexit, os, sys
from gamma0.cli import main
os.cpu_count = lambda: 2
atexit.register(lambda: sys.stderr.write("atexit\\n"))
sys.stdout.write("x")  # held in the block buffer of a piped stdout
sys.exit(main(["sweep", "2", "100", "--jobs", "2"]))
"""


def test_sweep_workers_flush_no_inherited_buffer():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    serial, forked = (
        subprocess.run(argv, capture_output=True, env=env, timeout=120)
        for argv in (
            [sys.executable, "-m", "gamma0", "sweep", "2", "100"],
            [sys.executable, "-c", _INHERITED_BUFFERS],
        )
    )
    assert serial.returncode == forked.returncode == 0, forked.stderr
    assert forked.stdout == b"x" + serial.stdout
    assert forked.stderr == b"atexit\n"


def test_importing_the_cli_loads_no_process_machinery():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    script = (
        "import sys, gamma0.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'pickle') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sweep_thread_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA0_THREADS", "0")
    code, _, err = run_cli(capsys, "sweep", "2", "5")
    assert code == 2
    assert "worker count" in err
    monkeypatch.setenv("GAMMA0_THREADS", "abc")
    code, out, err = run_cli(capsys, "sweep", "2", "5")
    assert code == 2
    assert out == ""
    assert "GAMMA0_THREADS" in err


def test_sweep_opens_its_output_before_any_chunk(capsys, monkeypatch, tmp_path):
    chunks = []
    monkeypatch.setattr(gamma0.cli, "_sweep_chunk", chunks.append)
    missing = tmp_path / "missing" / "x.csv"
    argv = ("sweep", "100000", "100255", "--jobs", "1", "--output", str(missing))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert str(missing) in err
    assert chunks == []


@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_sweep_rejects_negative_exact_m_budgets(capsys, monkeypatch, tmp_path, budget):
    # checked before the output is opened and before any chunk
    chunks = []
    monkeypatch.setattr(gamma0.cli, "_sweep_chunk", chunks.append)
    output = tmp_path / "x.csv"
    argv = ("sweep", "29", "31", "--exact-m", budget, "--output", str(output))
    assert run_cli(capsys, *argv) == (2, "", "error: --exact-m must be >= 0\n")
    assert chunks == []
    assert not output.exists()


def test_sweep_filters(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "200", "--filter", "prime-squares")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["4", "9", "25", "49", "121", "169"]
    code, out, _ = run_cli(capsys, "sweep", "2", "200", "--filter", "twin-pq")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["15", "21", "35", "55", "65", "77", "91", "143", "187"]


_EMPTY_SWEEP = {"csv": ",".join(gamma0.cli._SWEEP_COLUMNS) + "\r\n", "json": "[]\n"}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_filter_keeping_no_level_prints_only_the_header(capsys, monkeypatch, forks, fmt, jobs):
    # 2 … 10 holds no twin level, so there is no chunk to share out
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ("sweep", "2", "10", "--filter", "twin-pq", "--format", fmt, "--jobs", jobs)
    assert run_cli(capsys, *argv) == (0, _EMPTY_SWEEP[fmt], "")
    assert forks == []


def test_sweep_without_fork_runs_serially(capsys, monkeypatch):
    # platforms without os.fork compute every share in the calling process
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    serial = run_cli(capsys, "sweep", "2", "200", "--jobs", "1")
    monkeypatch.delattr(os, "fork")
    assert run_cli(capsys, "sweep", "2", "200", "--jobs", "4") == serial
    assert_no_child_left()


def test_sweep_rejects_empty_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "9", "5")
    assert code == 2
    assert "empty sweep range" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gamma0", "invariants", "41"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "index = 42" in proc.stdout


def test_closed_stdout_ends_quietly_with_exit_code_1():
    # the reader takes one line and leaves; the rest of the sweep meets a
    # closed pipe, which is no usage error and prints nothing
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gamma0", "sweep", "2", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"n,index,")
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "100000", "100063"),
        ("generators", "4483", "--verify", "--json"),
        ("generators", "1147", "--verify", "--json"),
        ("generators", "1000", "--verify", "--json"),
        ("bounds", "797", "--exact", "--json"),
    ],
)
def test_optimised_run_prints_the_same_bytes(argv):
    # python -O strips every assert; the checks must hold no work the
    # output depends on (4483 is a prime, 1147 = 31·37 a twin level, and
    # 1000 grows its polygon leftmost; the exact m at the prime 797 rests
    # on the optimal witness, whose one check raises rather than asserts)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "gamma0", *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0]


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [("polygon", "9240", "--json"), ("polygon", "9240", "--svg"), ("generators", "9240", "--json")],
)
def test_output_is_not_cut_by_the_int_digit_limit(argv, tmp_path):
    # leftmost growth reaches 706-digit denominators at 9240, past a limit of 640
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    svg = [str(tmp_path / "poly.svg")] if argv[-1] == "--svg" else []
    outs = []
    for flags in ([], ["-X", "int_max_str_digits=640"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "gamma0", *argv, *svg],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout + (Path(svg[0]).read_bytes() if svg else b""))
    assert outs[0] == outs[1]
    assert len(outs[0]) > 10_000


@needs_digit_limit
def test_main_restores_the_callers_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert run_cli(capsys, "invariants", "17")[0] == 0
        assert sys.get_int_max_str_digits() == 640
        assert run_cli(capsys, "sweep", "9", "5")[0] == 2  # an error return restores it too
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)


NO_NUMPY = """
import sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, NoNumpy())
from gamma0.cli import main
from gamma0.invariants import equality_list

for argv in (["sweep", "2", "60"], ["bounds", "41", "--exact", "--json"], ["generators", "143", "--verify"]):
    assert main(argv) == 0, argv
assert equality_list(2000)[-1] == 173
assert "numpy" not in sys.modules
print("no numpy")
"""


def test_gamma0_runs_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("no numpy")
