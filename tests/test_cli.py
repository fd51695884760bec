"""CLI behavior: dispatch, exit codes, caching, config precedence."""

import csv
import io
import json
import math

import numpy as np
import pytest

from dyncert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_well_window(self, capsys):
        code, out, _ = run(capsys, "bounds", "--model", "well", "--tau", "1")
        assert code == 0
        data = json.loads(out)
        assert data["window"] == [0.5625, 2.25]

    def test_morse_extrema(self, capsys):
        code, out, _ = run(capsys, "bounds", "--model", "morse", "--lambda",
                           "10", "--tau", "1", "--energy-points", "40")
        assert code == 0
        rows = [r for r in json.loads(out)["trapping_times"]
                if "error" not in r]
        dt_plus = [r["dt_plus"] for r in rows]
        dt_minus = [r["dt_minus"] for r in rows if r["dt_minus"] != "inf"]
        assert max(dt_plus) <= 0.5 + 1e-6
        assert min(dt_minus) >= 0.5 - 1e-6

    def test_invalid_alpha_exit_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--model", "pendulum",
                           "--alpha", "0.1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestScore:
    def test_harmonic_nmax(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "harmonic",
                           "--tau", "1", "--nmax", "6")
        assert code == 0
        assert abs(json.loads(out)["p3_max"] - 0.687) < 1e-3

    def test_scenario_ordered(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "kerr", "--alpha",
                           "-0.02", "--scenario", "--nhat", "6")
        assert code == 0
        recs = json.loads(out)["scenarios"]
        assert len(recs) == 3
        assert recs[0]["p3"] >= recs[1]["p3"] - 1e-10 >= recs[2]["p3"] - 1e-10

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "well", "--scan",
                           "--tau-min", "0.3", "--tau-max", "0.5",
                           "--tau-points", "3", "--workers", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,p3_max,error"
        assert len(lines) == 4

    def test_scan_honours_nmax(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "harmonic", "--scan",
                           "--nmax", "6", "--tau-min", "0.9", "--tau-max",
                           "1.1", "--tau-points", "5", "--workers", "2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(r["error"] == "" and math.isfinite(float(r["p3_max"]))
                   for r in rows)

    def test_scan_all_points_failed_exit_3(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, out, err = run(capsys, "score", "--model", "harmonic",
                             "--scan", "--tau-min", "0.9", "--tau-max", "1.1",
                             "--tau-points", "3", "--output", str(target))
        assert code == 3
        assert json.loads(err)["error"]["type"] == "DyncertError"
        assert not target.exists()

    def test_empty_scan_exit_2(self, capsys):
        code, _, _ = run(capsys, "score", "--model", "well", "--scan",
                         "--tau-min", "0.3", "--tau-max", "0.5",
                         "--tau-points", "0")
        assert code == 2

    def test_missing_tau_exit_2(self, capsys):
        code, _, err = run(capsys, "score", "--model", "harmonic")
        assert code == 2


class TestSimulate:
    def test_psi6(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", "harmonic",
                           "--state", "psi6", "--tau", "1",
                           "--rounds", "20000", "--seed", "7")
        assert code == 0
        d = json.loads(out)
        assert abs(d["p3_hat"] - 0.687) < 4 * d["stderr"]

    def test_zero_rounds_exit_2(self, capsys):
        code, _, _ = run(capsys, "simulate", "--model", "harmonic",
                         "--rounds", "0", "--tau", "1")
        assert code == 2

    def test_state_file_cross_command(self, capsys, tmp_path):
        code, out, _ = run(capsys, "score", "--model", "kerr", "--alpha",
                           "0.02", "--tau", "1", "--nmax", "10")
        score = json.loads(out)
        path = tmp_path / "opt.json"
        path.write_text(json.dumps(score))
        code, out, _ = run(capsys, "simulate", "--model", "kerr", "--alpha",
                           "0.02", "--state", f"file:{path}", "--tau", "1",
                           "--rounds", "50000", "--seed", "3")
        assert code == 0
        d = json.loads(out)
        assert abs(d["p3_hat"] - score["p3_max"]) < 4 * d["stderr"]


class TestWigner:
    def test_writes_grid_and_marginals(self, capsys, tmp_path):
        code, _, _ = run(capsys, "wigner", "--model", "harmonic", "--state",
                         "psi6", "--tau", "1", "--grid-points", "61",
                         "--output", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"wigner.csv", "wigner.json", "marginal-t0.csv",
                "marginal-t1.csv", "marginal-t2.csv"} <= names

    def test_pendulum_needs_angular(self, capsys):
        code, _, err = run(capsys, "wigner", "--model", "pendulum",
                           "--alpha", "-0.02", "--tau", "1")
        assert code == 2


class TestCacheAndConfig:
    def test_cache_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run(capsys, "score", "--model", "kerr", "--alpha",
                             "0.02", "--tau", "1", "--cache", str(cache),
                             "--output", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert any(p.name.startswith("slice-") for p in cache.iterdir())

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = harmonic\ntau = 1\nnmax = 6\n")
        code, out, _ = run(capsys, "score", "--config", str(cfg))
        assert code == 0
        assert abs(json.loads(out)["p3_max"] - 0.687) < 1e-3
        # explicit flag wins over the config value
        code, out, _ = run(capsys, "score", "--config", str(cfg),
                           "--tau", "0.75")
        assert json.loads(out)["tau"] == 0.75

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = harmonic\nbogus = 1\n")
        code, _, err = run(capsys, "score", "--config", str(cfg), "--tau", "1")
        assert code == 2

    def test_bad_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model = harmonic\ntau = one\nnmax = 6\n")
        code, out, err = run(capsys, "score", "--config", str(cfg))
        assert code == 2 and out == ""
        error = json.loads(err.splitlines()[-1])["error"]
        assert error["type"] == "DomainError"


@pytest.fixture(scope="class")
def figures(tmp_path_factory):
    root = tmp_path_factory.mktemp("figures")
    return main(["make-figures", "--output", str(root)]), root


class TestMakeFigures:
    def test_generates_tree(self, figures):
        code, root = figures
        assert code == 0
        assert (root / "harmonic-score" / "data.json").exists()
        assert (root / "well-scan" / "data.csv").exists()
        assert (root / "psi6-wigner" / "wigner.csv").exists()
        assert (root / "pendulum-wigner" / "wigner.csv").exists()

    def test_no_nan_rows(self, figures):
        code, root = figures
        assert code == 0
        paths = sorted(root.rglob("*.csv"))
        assert any(p.parent.name == "harmonic-scan" for p in paths)
        for path in paths:
            for row in csv.reader(io.StringIO(path.read_text())):
                assert "nan" not in [cell.lower() for cell in row], path
