"""CLI behavior: output formats, exit codes, sweep determinism."""

import csv
import io
import json

import pytest

from gamma0.cli import main
from gamma0.polygon import grow_maximal, polygon_from_json


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


def test_bounds_exact_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "bounds", "41", "--exact", "--max-bound", "6")
    assert code == 1
    assert "exhausted" in out
    assert "no maximal polygon" in err


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


def test_sweep_thread_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GAMMA0_THREADS", "0")
    code, _, err = run_cli(capsys, "sweep", "2", "5")
    assert code == 2
    assert "worker count" in err


def test_sweep_filters(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "200", "--filter", "prime-squares")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["4", "9", "25", "49", "121", "169"]
    code, out, _ = run_cli(capsys, "sweep", "2", "200", "--filter", "twin-pq")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["15", "21", "35", "55", "65", "77", "91", "143", "187"]


def test_sweep_rejects_empty_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "9", "5")
    assert code == 2
    assert "empty sweep range" in err
