"""CLI behavior: dispatch, exit codes, caching, config precedence."""

import csv
import io
import json
import math

import numpy as np
import pytest

from dyncert import cli
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

    @pytest.mark.parametrize("model", [["morse", "--lambda", "10"], ["well"]])
    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exit_2(self, capsys, tmp_path, model, tau):
        out = tmp_path / "bounds.json"
        code, _, err = run(capsys, "bounds", "--model", *model, "--tau", tau,
                           "--output", str(out))
        assert code == 2 and not out.exists()
        assert json.loads(err)["error"]["type"] == "UnsupportedTauError"

    def test_zero_energy_points_exit_2(self, capsys, tmp_path):
        out = tmp_path / "bounds.json"
        code, _, err = run(capsys, "bounds", "--model", "well", "--tau", "1",
                           "--energy-points", "0", "--output", str(out))
        assert code == 2 and not out.exists()
        assert "energy-points" in err

    def test_seed_is_not_a_bounds_flag(self, capsys):
        # only simulate reads --seed
        code, out, _ = run(capsys, "bounds", "--model", "well", "--tau", "1",
                           "--seed", "1")
        assert code == 2 and out == ""


class TestScore:
    def test_harmonic_nmax(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "harmonic",
                           "--tau", "1", "--nmax", "6")
        assert code == 0
        assert abs(json.loads(out)["p3_max"] - 0.687) < 1e-3

    def test_unbounded_window_is_strict_json(self, capsys, monkeypatch):
        monkeypatch.delenv("DYNCERT_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "score", "--model", "morse", "--lambda",
                           "5.5", "--tau", "1")
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert json.loads(out, parse_constant=reject)["window"] == [0.0, "inf"]

    def test_scenario_ordered(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "kerr", "--alpha",
                           "-0.02", "--scenario", "--nhat", "6")
        assert code == 0
        recs = json.loads(out)["scenarios"]
        assert len(recs) == 3
        assert recs[0]["p3"] >= recs[1]["p3"] - 1e-10 >= recs[2]["p3"] - 1e-10

    def test_large_kerr_slice_exit_0(self, capsys):
        # Lanczos runs short on this slice; the dense SVD scores it
        code, out, _ = run(capsys, "score", "--model", "kerr", "--alpha",
                           "0.02", "--tau", "1", "--nmax", "800")
        assert code == 0
        assert abs(json.loads(out)["p3_max"] - 1.0) <= 1e-10

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "well", "--scan",
                           "--tau-min", "0.3", "--tau-max", "0.5",
                           "--tau-points", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,p3_max,error"
        assert len(lines) == 4

    def test_scan_honours_nmax(self, capsys):
        code, out, _ = run(capsys, "score", "--model", "harmonic", "--scan",
                           "--nmax", "6", "--tau-min", "0.9", "--tau-max",
                           "1.1", "--tau-points", "5")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(r["error"] == "" and math.isfinite(float(r["p3_max"]))
                   for r in rows)

    def test_scan_all_points_failed_exit_3(self, capsys, tmp_path):
        # the pendulum's tau = 0.75 window collapses to one energy, which
        # holds no level: a failure of that point, not of the command line
        target = tmp_path / "scan.csv"
        code, out, err = run(capsys, "score", "--model", "pendulum",
                             "--alpha", "-0.02", "--scan", "--tau-min",
                             "0.75", "--tau-max", "0.75", "--tau-points", "1",
                             "--output", str(target))
        assert code == 3
        assert json.loads(err)["error"]["type"] == "DyncertError"
        assert not target.exists()

    def test_scan_unbounded_spectrum_exit_2(self, capsys, tmp_path):
        # every tau's harmonic window is [0, inf): without --nmax no point
        # has a finite slice, a usage error as in the single-tau form
        target = tmp_path / "scan.csv"
        code, _, err = run(capsys, "score", "--model", "harmonic", "--scan",
                           "--tau-min", "0.8", "--tau-max", "1.2",
                           "--tau-points", "3", "--output", str(target))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UnboundedSpectrumError"
        assert not target.exists()
        single, _, _ = run(capsys, "score", "--model", "harmonic", "--tau", "1")
        assert single == 2

    def test_scan_nmax_below_first_level_exit_2(self, capsys):
        code, _, err = run(capsys, "score", "--model", "well", "--nmax", "0",
                           "--scan", "--tau-min", "0.8", "--tau-max", "1.2",
                           "--tau-points", "3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_empty_scan_exit_2(self, capsys):
        code, _, _ = run(capsys, "score", "--model", "well", "--scan",
                         "--tau-min", "0.3", "--tau-max", "0.5",
                         "--tau-points", "0")
        assert code == 2

    def test_missing_tau_exit_2(self, capsys):
        code, _, err = run(capsys, "score", "--model", "harmonic")
        assert code == 2

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    @pytest.mark.parametrize("taus", [["--tau", "{}"],
                                      ["--scan", "--tau", "{}"],
                                      ["--scan", "--tau-min", "{}",
                                       "--tau-max", "1"]],
                             ids=["single", "scan", "scan-min"])
    def test_non_finite_tau_exit_2(self, capsys, tmp_path, taus, tau):
        out = tmp_path / "score.json"
        code, _, err = run(capsys, "score", "--model", "harmonic", "--nmax",
                           "6", *[a.format(tau) for a in taus],
                           "--output", str(out))
        assert code == 2 and not out.exists()
        assert json.loads(err)["error"]["type"] == "DomainError"


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_range_exit_2(self, capsys, seed):
        code, out, err = run(capsys, "simulate", "--model", "harmonic",
                             "--state", "psi6", "--tau", "1",
                             "--rounds", "1000", "--seed", seed)
        assert code == 2 and out == "" and "seed" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_exit_2(self, capsys, workers):
        code, out, err = run(capsys, "simulate", "--model", "harmonic",
                             "--state", "psi6", "--tau", "1",
                             "--rounds", "1000", "--workers", workers)
        assert code == 2 and out == "" and "workers" in err

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exit_2(self, capsys, tmp_path, tau):
        out = tmp_path / "estimate.json"
        code, _, err = run(capsys, "simulate", "--model", "harmonic",
                           "--tau", tau, "--rounds", "100",
                           "--output", str(out))
        assert code == 2 and not out.exists()
        assert json.loads(err)["error"]["type"] == "DomainError"

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

    @pytest.mark.parametrize("command", ["simulate", "wigner"])
    @pytest.mark.parametrize("state", [
        {"indices": [1, 2]},                                  # no amplitudes
        {"amplitudes": [[1.0, 0.0]]},                         # no indices
        {"indices": [0, 1], "amplitudes": [[1.0, 0.0]] * 2},  # no well level 0
        {"indices": [1, 2], "amplitudes": [[1.0, 0.0]]},      # one too few
        [1, 2],                                               # not an object
    ])
    def test_bad_state_file_exit_2(self, capsys, tmp_path, command, state):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        extra = ["--rounds", "10"] if command == "simulate" else []
        code, out, err = run(capsys, command, "--model", "well", "--tau",
                             "0.4", "--state", f"file:{path}",
                             "--output", str(tmp_path / "out"), *extra)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestWigner:
    def test_writes_grid_and_marginals(self, capsys, tmp_path):
        code, _, _ = run(capsys, "wigner", "--model", "harmonic", "--state",
                         "psi6", "--tau", "1", "--grid-points", "61",
                         "--output", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"wigner.csv", "wigner.json", "marginal-t0.csv",
                "marginal-t1.csv", "marginal-t2.csv"} <= names

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_exit_2(self, capsys, tmp_path, tau):
        code, _, err = run(capsys, "wigner", "--model", "harmonic", "--tau",
                           tau, "--grid-points", "61",
                           "--output", str(tmp_path / "w"))
        assert code == 2 and not (tmp_path / "w").exists()
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_zero_norm_state_exit_2(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"indices": [0, 1],
                                    "amplitudes": [[0, 0], [0, 0]]}))
        code, _, err = run(capsys, "wigner", "--model", "harmonic", "--tau",
                           "1", "--state", f"file:{path}", "--grid-points",
                           "61", "--output", str(tmp_path / "w"))
        assert code == 2 and not (tmp_path / "w").exists()
        assert json.loads(err)["error"]["type"] == "DomainError"

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

    def test_cache_hit_prints_miss_bytes_pendulum(self, capsys, tmp_path):
        argv = ["score", "--model", "pendulum", "--alpha", "-0.02", "--tau",
                "1", "--cache", str(tmp_path / "cache")]
        miss = run(capsys, *argv)
        hit = run(capsys, *argv)
        assert miss[0] == hit[0] == 0
        assert hit[1] == miss[1]

    def test_cache_hit_same_score_above_dense_limit(self, tmp_path):
        # harmonic window slices above DENSE_EIG_LIMIT hold a Toeplitz
        # generator; the cached one must score to the same bytes
        from dyncert import cli, models, protocol, spectra
        from dyncert.classical import EnergyWindow
        mdl, window = models.harmonic(), EnergyWindow(0.0, 300.5)
        texts = []
        for _ in range(2):
            slc = cli.cached_slice(mdl, window, str(tmp_path))
            assert slc.dim > spectra.DENSE_EIG_LIMIT
            assert isinstance(slc.sgn, spectra.ToeplitzBlock)
            texts.append(json.dumps(
                protocol.max_score(slc, 1.0, window=window).to_json_dict()))
        assert len(list(tmp_path.iterdir())) == 1
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("mode", [
        ["--tau", "1", "--nmax", "6"],
        ["--scan", "--nmax", "6", "--tau-min", "0.9", "--tau-max", "1.1",
         "--tau-points", "3"],
        ["--scenario", "--nhat", "6", "--model", "kerr", "--alpha", "0.02"],
    ])
    def test_cache_dir_only_for_window_slices(self, capsys, tmp_path,
                                              monkeypatch, mode):
        monkeypatch.delenv("DYNCERT_CACHE_DIR", raising=False)
        cache = tmp_path / "cache"
        code, _, _ = run(capsys, "score", "--model", "harmonic", *mode,
                         "--cache", str(cache))
        assert code == 0
        assert not cache.exists()

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

    def test_config_key_the_command_does_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = well\ntau = 1\ncache = somewhere\n")
        code, out, err = run(capsys, "bounds", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "unknown config key" in json.loads(err)["error"]["message"]

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

    def test_csv_cells_are_plain_floats(self, figures):
        # every value cell parses as a number; scans add an error column
        code, root = figures
        assert code == 0
        for path in sorted(root.rglob("*.csv")):
            header, *rows = csv.reader(io.StringIO(path.read_text()))
            assert rows, path
            # the Wigner header row holds the p axis after its q\p corner
            cells = header[1:] if header[0] == "q\\p" else []
            for row in rows:
                cells += [c for name, c in zip(header, row) if name != "error"]
            for cell in cells:
                float(cell)

    def test_one_parser_and_a_config_that_stays_its_own(self, figures,
                                                        monkeypatch, tmp_path):
        # every job is parsed by the one parser; a make-figures config sets
        # a default of its own subparser only, and the bytes do not change
        built = []

        def counted():
            built.append(build())
            return built[-1]

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counted)
        cfg, tree = tmp_path / "figures.cfg", tmp_path / "tree"
        cfg.write_text(f"output = {tree}\n")
        assert main(["make-figures", "--config", str(cfg)]) == 0
        assert len(built) == 1
        _, commands = built[0]
        assert commands["make-figures"].get_default("output") == str(tree)
        for name in ("score", "bounds", "wigner"):
            assert commands[name].get_default("output") is None
        _, root = figures
        files = sorted(p.relative_to(root) for p in root.rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(tree) for p in tree.rglob("*")
                               if p.is_file())
        for rel in files:
            assert (tree / rel).read_bytes() == (root / rel).read_bytes()

    def test_takes_no_model_flags(self, capsys):
        code, _, _ = run(capsys, "make-figures", "--model", "kerr")
        assert code == 2
