import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prolate
from prolate import lambda0_curve
from prolate.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main,
                         parse_grid)


def read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip().split(","))
    return rows[0], rows[1:]


@pytest.mark.parametrize("module", ["prolate", "prolate.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    env = dict(os.environ, PYTHONPATH=str(Path(prolate.__file__).parents[1]))
    out = tmp_path / "spec.csv"
    proc = subprocess.run([sys.executable, "-m", module, "spectrum", "--c", "5",
                           "--out", str(out)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    header, rows = read_rows(out)
    assert header == ["c", "n", "lambda"] and rows


def test_parse_grid():
    assert parse_grid("1:3:1") == (1.0, 2.0, 3.0)
    assert len(parse_grid("0.1:10:0.1")) == 100
    with pytest.raises(Exception):
        parse_grid("5:4:1")


@pytest.mark.parametrize("argv", [["lambda0", "--c-grid", "0.5:20:0.5"],
                                  ["superres", "--c", "5", "--tau", "0.3"]],
                         ids=["lambda0", "superres"])
def test_low_quad_order_raised_to_minimum(tmp_path, argv):
    low, default = tmp_path / "low.csv", tmp_path / "default.csv"
    assert main(argv + ["--quad-order", "10", "--out", str(low)]) == EXIT_OK
    assert main(argv + ["--out", str(default)]) == EXIT_OK
    assert read_rows(low) == read_rows(default)


class TestSpectrum:
    def test_plunge_location_and_lambda0(self, tmp_path):
        out = tmp_path / "spec.csv"
        c = 2.5 * math.pi
        assert main(["spectrum", "--c", str(c), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["c", "n", "lambda"]
        lam = np.array([float(r[2]) for r in rows])
        # the plunge sits near n = 5 for this c
        above = np.nonzero(lam > 0.5)[0]
        assert abs(int(above[-1]) + 0.5 - 5.0) <= 1.5
        out5 = tmp_path / "spec5.csv"
        assert main(["spectrum", "--c", "5", "--out", str(out5)]) == EXIT_OK
        _, rows5 = read_rows(out5)
        assert float(rows5[0][2]) == pytest.approx(0.999, abs=2e-3)

    def test_empty_grid_is_usage_error(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--c-grid", "5:4:1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_numerical_failure_exit(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--c", "1", "--n-max", "40", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()

    def test_io_failure_exit(self, tmp_path):
        code = main(["spectrum", "--c", "3",
                     "--out", str(tmp_path / "no-such-dir" / "x.csv")])
        assert code == EXIT_IO


class TestHgCompare:
    def test_columns_parity_and_trend(self, tmp_path):
        out = tmp_path / "hg.csv"
        code = main(["hg-compare", "--c", "1", "--c", "10", "--t-grid=-3:3:0.05",
                     "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["c", "t", "psi2", "psi2_hg", "sup_distance"]
        by_c = {}
        for r in rows:
            by_c.setdefault(float(r[0]), []).append([float(x) for x in r[1:]])
        sup = {c: rows_c[0][3] for c, rows_c in by_c.items()}
        assert sup[10.0] < sup[1.0]
        for c, rows_c in by_c.items():
            arr = np.array(rows_c)
            t, psi2, hg2 = arr[:, 0], arr[:, 1], arr[:, 2]
            # symmetric grid: both columns even in t
            assert np.allclose(psi2, psi2[::-1], atol=1e-9)
            assert np.allclose(hg2, hg2[::-1], atol=1e-9)
            assert np.max(np.abs(psi2 - hg2)) == pytest.approx(arr[0, 3], rel=1e-12)


class TestLambda0:
    def test_matches_library_and_monotone(self, tmp_path):
        out = tmp_path / "l0.csv"
        assert main(["lambda0", "--c-grid", "1:5:1", "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        got = np.array([[float(r[0]), float(r[1])] for r in rows])
        expect = lambda0_curve([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(got, expect)
        assert np.all(np.diff(got[:, 1]) >= 0.0)


class TestSuperres:
    def test_sweep_rows_and_bounds(self, tmp_path):
        out = tmp_path / "sr.csv"
        code = main(["superres", "--c", "2", "--c", "5", "--tau", "0.3",
                     "--tau", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["c", "tau", "tau0", "nu", "regime", "A", "bound_phi2",
                          "bound_lambda0", "F_tautau", "crb_tau", "crb_tau0", "crb_nu"]
        assert len(rows) == 4
        for r in rows:
            a, bp, bl = float(r[5]), float(r[6]), float(r[7])
            assert a <= bp + 1e-9 <= bl + 2e-9
            assert r[4] == "limited"

    def test_ideal_regime_reports_sphere_identity(self, tmp_path):
        out = tmp_path / "sri.csv"
        r1, phi1, r2, phi2 = 0.6, 0.7, 0.5, 1.9
        code = main(["superres", "--c", "5", "--tau", "0.4", "--regime", "ideal",
                     "--design", f"{r1},{phi1},{r2},{phi2}", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        expect = r2 ** 2 * math.sin(phi1 - phi2) ** 2
        assert float(rows[0][5]) == pytest.approx(expect, abs=1e-12)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sr.json"
        code = main(["superres", "--c", "5", "--tau", "0.4", "--format", "json",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["columns"][0] == "c"
        assert doc["config"]["command"] == "superres"
        assert len(doc["rows"]) == 1


    def test_truncated_regime_reports_ideal_efficiency(self, tmp_path):
        out = tmp_path / "srt.csv"
        r1, phi1, r2, phi2 = 0.6, 0.7, 0.5, 1.9
        code = main(["superres", "--c", "5", "--tau", "0.4", "--regime", "truncated",
                     "--design", f"{r1},{phi1},{r2},{phi2}", "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        assert rows[0][4] == "truncated"
        expect = r2 ** 2 * math.sin(phi1 - phi2) ** 2
        assert float(rows[0][5]) == pytest.approx(expect, abs=1e-12)

    def test_component_error_maps_to_numeric_exit(self, tmp_path):
        # lattice angle is rejected by the design constructor at run time
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "5", "--tau", "0.4",
                     "--design", "0.7,0.0,0.7,1.0", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()


    def test_singular_crb_reported_as_nan(self, tmp_path, capsys):
        # separation far below the pulse width: Fisher degenerates, the sweep
        # keeps going, records empty bounds and says why on stderr
        out = tmp_path / "sr_sing.csv"
        code = main(["superres", "--c", "5", "--tau", "0.0005", "--tau", "0.4",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        assert rows[0][9] == "nan" and rows[0][10] == "nan" and rows[0][11] == "nan"
        assert float(rows[0][8]) >= 0.0  # F_tautau itself is still reported
        assert "nan" not in rows[1]
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("c=5.0 tau=0.0005:")
        assert "unidentifiable direction" in line and "*tau0" in line

    @pytest.mark.parametrize("nu", ["0", "1"])
    def test_nu_at_boundary_names_the_step(self, tmp_path, capsys, nu):
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "5", "--tau", "0.3", "--nu", nu,
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "Fisher step" in capsys.readouterr().err
        assert not out.exists()

    def test_tau_within_step_names_the_step(self, tmp_path, capsys):
        # passes the default floor 1e-4 sigma = 8.2e-6 but not the Fisher step 1e-5
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "150", "--tau", "9e-6", "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "tau = 9e-06" in err and "Fisher step" in err
        assert not out.exists()


class TestDeterminismAndConfig:
    def test_same_config_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a" / "sr.csv", tmp_path / "b" / "sr.csv"
        out1.parent.mkdir()
        out2.parent.mkdir()
        argv = ["superres", "--c", "3", "--tau", "0.5", "--nu", "0.4"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        a = out1.read_text().replace(str(out1), "OUT")
        b = out2.read_text().replace(str(out2), "OUT")
        assert a == b

    def test_manifest_rerun_reproduces_bytes(self, tmp_path, monkeypatch):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        monkeypatch.chdir(first)
        assert main(["superres", "--c", "4", "--tau", "0.4", "--out", "sr.csv"]) == EXIT_OK
        manifest = first / "sr.csv.manifest.json"
        assert manifest.exists()
        monkeypatch.chdir(second)
        assert main(["superres", "--config", str(manifest)]) == EXIT_OK
        assert (second / "sr.csv").read_bytes() == (first / "sr.csv").read_bytes()

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c_values": [2.0], "nu": 0.3, "tau_values": [0.5]}))
        out = tmp_path / "sr.csv"
        code = main(["superres", "--config", str(cfg), "--nu", "0.45",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        assert float(rows[0][0]) == 2.0      # from file
        assert float(rows[0][3]) == 0.45     # flag wins

    def test_data_files_carry_config(self, tmp_path):
        out = tmp_path / "l0.csv"
        assert main(["lambda0", "--c", "2", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("# schema_version=1\n# config=")
        embedded = json.loads(text.splitlines()[1].split("=", 1)[1])
        assert embedded["c_values"] == [2.0]

    def test_bad_config_values(self, tmp_path):
        assert main(["superres", "--c", "2", "--tau", "-0.1",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert main(["superres", "--c", "2", "--tau", "0.2", "--nu", "1.4",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert main(["spectrum", "--c", "-3",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        assert main(["superres", "--c", "2", "--tau", "0.2",
                     "--design", "1,2,3", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    @pytest.mark.parametrize("source, grid", [("flag", "1:2"), ("file", [1, 2]),
                                              ("file", [2, 1, 0.1])],
                             ids=["flag-two-numbers", "file-two-numbers",
                                  "file-descending"])
    def test_malformed_t_grid_is_config_error(self, tmp_path, capsys, source, grid):
        out = tmp_path / "hg.csv"
        argv = ["hg-compare", "--c", "5", "--out", str(out)]
        if source == "flag":
            argv += ["--t-grid", grid]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"t_grid": grid}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()
