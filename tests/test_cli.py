import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prolate
from prolate import lambda0_curve
from prolate import basis as basis_module
from prolate.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, ConfigError,
                         build_parser, grid_triple, main, parse_grid, resolve_config)

# data files and manifests of each command, written before quad_order was retired
RECORDED = Path(__file__).parent / "data" / "recorded"


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


def test_grid_point_limit():
    assert len(parse_grid("1:1000000:1")) == 10 ** 6
    with pytest.raises(ConfigError, match="more than 1000000 points"):
        parse_grid("0:1000000:1")


def test_grid_checked_without_building():
    # the size check counts the points; the grid itself is made once, later
    tracemalloc.start()
    try:
        assert grid_triple("0:999998:1") == (0.0, 999998.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_huge_grid_refused_before_building(tmp_path):
    # 10^12 points; the child's address space is capped, so a grid that is
    # built before the check fails there instead of filling the machine
    env = dict(os.environ, PYTHONPATH=str(Path(prolate.__file__).parents[1]))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from prolate.cli import main\n"
              "sys.exit(main(['lambda0', '--c-grid', '1:2:1e-12', '--out', 'never.csv']))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "more than 1000000 points" in proc.stderr
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_quad_order_refused(tmp_path, monkeypatch, capsys, source):
    # its one effect was a cap on the automatic n_max, which --n-max sets
    monkeypatch.chdir(tmp_path)
    argv = ["superres", "--c", "5", "--tau", "0.3"]
    if source == "flag":
        argv += ["--quad-order", "400"]
        message = "--quad-order"
    else:
        doc = json.loads((RECORDED / "superres.csv.manifest.json").read_text())
        doc["config"]["quad_order"] = 400
        Path("old.json").write_text(json.dumps(doc))
        argv += ["--config", "old.json"]
        message = "sets the retired 'quad_order'"
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and (source == "flag" or "--n-max" in err)
    assert sorted(os.listdir(tmp_path)) == ([] if source == "flag" else ["old.json"])


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--c", "5", "--n-max", "100000"], "--c 5.0 with --n-max 100000 needs"),
    (["hg-compare", "--c", "2", "--c", "1300"], "--c 1300.0 needs"),
    (["lambda0", "--c", "3000"], "--c 3000.0 needs"),
    (["superres", "--c", "1500", "--tau", "0.3"], "--c 1500.0 needs"),
], ids=["spectrum-n-max", "hg-compare-c", "lambda0-c", "superres-c"])
def test_oversized_basis_refused_before_solve(tmp_path, monkeypatch, capsys, argv, message):
    def solve(*args):
        raise AssertionError("_legendre_modes called")

    monkeypatch.setattr(basis_module, "_legendre_modes", solve)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Legendre terms, over 2048" in err
    assert os.listdir(tmp_path) == []
    # lambda0 builds one mode, so its limit on c sits higher than superres's
    resolve_config(build_parser().parse_args(["lambda0", "--c", "1500"]))


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

    def test_numerical_failure_exit(self, tmp_path, monkeypatch):
        # no input makes the Legendre-basis solve fail, so one is injected
        def fail(*args, **kwargs):
            raise prolate.EigensolverError("injected")

        monkeypatch.setattr("prolate.cli.build_basis", fail)
        out = tmp_path / "never.csv"
        code = main(["spectrum", "--c", "1", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.02:1.22:0.04", "1.58:1.8:0.02"])
    def test_default_n_max_at_small_c(self, tmp_path, grid):
        # the default n_max is plunge_index(c) + 6, deep in the tail at small c
        out = tmp_path / "spec.csv"
        assert main(["spectrum", f"--c-grid={grid}", "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        c_values = parse_grid(grid)
        assert len(rows) == sum(prolate.plunge_index(c) + 7 for c in c_values)
        for c in c_values:
            lam = np.array([float(r[2]) for r in rows if float(r[0]) == c])
            assert np.all(np.diff(lam) <= 0.0) and 0.0 < lam[-1] and lam[0] < 1.0

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

    def test_unresolved_pulse_refused(self, tmp_path, capsys):
        # sigma = 0.001 is far below what the real-line rule at c = 5 resolves:
        # the sampled energy is off by 0.15 and every row would be wrong
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "5", "--tau", "0.3", "--sigma", "0.001",
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "not unit-norm" in err and "narrower than the real-line rule" in err
        assert "|energy - 1| = 1.4" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--tau", "20", "--regime", "ideal"],
                                      ["--tau0", "10", "--tau", "0.3"]])
    def test_shift_beyond_reach_refused(self, tmp_path, capsys, argv):
        # at c = 20 the 108-node band rule resolves shifts up to 5.4; the pulses
        # at +/- 10, or the centroid at 10, would alias into wrong rows
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "20", *argv, "--out", str(out)])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "shift 10 beyond the reach 5.4 of the 108-node band rule" in err
        assert not out.exists()

    @pytest.mark.parametrize("c, n_max", [("5", "200"), ("20", "300")])
    def test_explicit_n_max_matches_smaller_basis(self, tmp_path, c, n_max):
        # the band rule takes at least the modes' Legendre terms: at --n-max
        # 200 and 300 A read 0.0128 and 0.0471 for 0.1155 and 0.4242
        def row(name, size):
            out = tmp_path / name
            assert main(["superres", "--c", c, "--tau", "0.3", "--n-max", size,
                         "--out", str(out)]) == EXIT_OK
            header, rows = read_rows(out)
            return {k: float(v) for k, v in zip(header, rows[0]) if k != "regime"}

        ref, big = row("ref.csv", "100"), row("big.csv", n_max)
        for key in ("A", "bound_phi2", "F_tautau"):
            assert abs(big[key] - ref[key]) <= 1e-9 * abs(ref[key]), key

    def test_rows_at_their_rounding_floor_refused(self, tmp_path, capsys):
        # the centroid at 3 is inside the reach 4.07, but the rows there are
        # rounding: bound_phi2 read 0.221 (0.794 from exact rows), F_tautau 0
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "45", "--tau0", "3", "--tau", "0.1",
                     "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "times its rounding floor" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_rows_at_their_rounding_floor_refused(self, tmp_path, capsys):
        # the centred derivative rows pass, but the pulses at +/- 3 are
        # rounding: F_tautau read 0.0 with NaN bounds labelled singular
        out = tmp_path / "never.csv"
        code = main(["superres", "--c", "45", "--tau", "6", "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert "order 0 at shift 3 is below 1e+12 times its rounding floor" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, n_rows", [
        (["--c-grid", "1:20:1", "--tau-grid", "0.1:0.5:0.1", "--regime", regime], 100)
        for regime in ("ideal", "limited", "truncated")] + [
        # the benchmark's superres-sweep strata at their centres and their
        # c jitter of 3%: (c, regime, first taus and steps)
        (["--c", c, "--regime", regime, *taus], len(taus) // 2)
        for centre, regime, taus in (
            (1.2, "limited", ["--tau", "0.08", "--tau", "0.12"]),
            (3.0, "ideal", ["--tau", "0.1", "--tau", "0.25", "--tau", "0.4"]),
            (6.0, "limited", ["--tau", "0.15", "--tau", "0.3", "--tau", "0.45"]),
            (12.0, "truncated", ["--tau", "0.1", "--tau", "0.25", "--tau", "0.4",
                                 "--tau", "0.55"]),
            (45.0, "limited", ["--tau", "0.1", "--tau", "0.3"]))
        for c in (repr(0.97 * centre), repr(centre), repr(1.03 * centre))])
    def test_sweeps_clear_of_the_rounding_floor(self, tmp_path, argv, n_rows):
        # centred pulses keep every derivative row far above its rounding
        # floor, so the 100-row sweep and the benchmark strata write every row
        out = tmp_path / "rows.csv"
        assert main(["superres", *argv, "--out", str(out)]) == EXIT_OK
        assert len(read_rows(out)[1]) == n_rows

    def test_far_centroid_within_reach_runs(self, tmp_path):
        # at c = 1.2 the band rule reaches 53.3: the pulse is sampled at its
        # own origin, so a centroid at 25 is a phase, not a wider sampling
        out = tmp_path / "far.csv"
        code = main(["superres", "--c", "1.2", "--tau0", "25", "--tau", "0.3",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_rows(out)
        assert float(rows[0][2]) == 25.0 and all(math.isfinite(float(v)) for v in rows[0][5:])

    @pytest.mark.parametrize("c, regime", [("1.2", "limited"), ("3", "ideal"),
                                           ("12", "truncated")])
    def test_taus_of_one_run_match_one_tau_runs(self, tmp_path, capsys, c, regime):
        # one Fisher call serves every tau of a c: same data rows and stderr
        # as a run per tau
        def run(name, taus):
            argv = ["superres", "--c", c, "--regime", regime, "--out", str(tmp_path / name)]
            for tau in taus:
                argv += ["--tau", tau]
            assert main(argv) == EXIT_OK
            with open(tmp_path / name) as fh:
                data = [line for line in fh if not line.startswith("#")]
            return data, capsys.readouterr().err

        taus = ("0.1", "0.25", "0.4")
        data, err = run("all.csv", taus)
        singles = [run(f"{i}.csv", (tau,)) for i, tau in enumerate(taus)]
        assert len(data) == 4
        assert data == [singles[0][0][0]] + [d[1] for d, _ in singles]
        assert err == "".join(e for _, e in singles)

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

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("flag, text, key, value", [
        ("--c", "nan", "c_values", [math.nan]), ("--c", "inf", "c_values", [math.inf]),
        ("--T", "nan", "T", math.nan),
        ("--tau", "nan", "tau_values", [math.nan]), ("--tau", "inf", "tau_values", [math.inf]),
        ("--tau0", "nan", "tau0", math.nan), ("--tau0", "inf", "tau0", math.inf),
        ("--sigma", "nan", "sigma", math.nan),
        ("--design", "nan,1,0.7,0.2", "design", [math.nan, 1.0, 0.7, 0.2]),
    ], ids=["c-nan", "c-inf", "T-nan", "tau-nan", "tau-inf", "tau0-nan", "tau0-inf",
            "sigma-nan", "design-nan"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, source,
                                                flag, text, key, value):
        out = tmp_path / "never.csv"
        argv = ["superres", "--out", str(out)]
        argv += [] if key == "c_values" else ["--c", "5"]
        argv += [] if key == "tau_values" else ["--tau", "0.3"]
        if source == "flag":
            argv += [f"{flag}={text}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))  # NaN and Infinity literals
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: {flag} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("source, grid, message", [
        ("flag", "1:2", "start:stop:step"), ("file", [1, 2], "start:stop:step"),
        ("file", [2, 1, 0.1], "stop >= start"),
        ("flag", "-3:3:nan", "non-finite step"), ("file", [-3, 3, math.nan], "non-finite step"),
    ], ids=["flag-two-numbers", "file-two-numbers", "file-descending", "flag-nan-step",
            "file-nan-step"])
    def test_malformed_t_grid_is_config_error(self, tmp_path, capsys, source, grid, message):
        out = tmp_path / "hg.csv"
        argv = ["hg-compare", "--c", "5", "--out", str(out)]
        if source == "flag":
            argv += [f"--t-grid={grid}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"t_grid": grid}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, doc, message", [
        (["superres"], {"c_values": 5}, "--c must be a list of numbers, got 5"),
        (["superres"], {"c_values": [5], "tau_values": 0.3}, "--tau must be a list of numbers"),
        (["superres"], [1, 2], "is not a key-value document"),
        (["superres", "--c", "5", "--tau", "0.3"], {"quad_order": 1e400},
         "sets the retired 'quad_order'"),
        (["superres", "--c", "5", "--tau", "0.3"], {"design": [1, 2]}, "--design needs 4"),
        (["superres", "--c", "5", "--tau", "0.3"], {"n_max": 2.7},
         "--n-max must be an integer, got 2.7"),
        (["superres", "--c", "5", "--tau", "0.3"], {"regime": "bogus"},
         "--regime must be one of ideal, limited, truncated, got 'bogus'"),
        (["lambda0", "--c", "2"], {"out": 1}, "--out must be a string, got 1"),
        (["lambda0"], {"c": [2]}, "has unknown keys 'c'"),
        (["hg-compare", "--c", "5", "--n-max", "1"], None, "--n-max must be >= 2"),
        (["superres", "--c", "5", "--tau", "0.3", "--n-max", "2"], None,
         "--n-max must be >= 3 for superres, got 2"),
    ], ids=["c-values-number", "tau-values-number", "not-an-object", "quad-order-overflow",
            "design-two-numbers", "n-max-fraction", "regime-unknown", "out-number",
            "unknown-key", "hg-compare-n-max-1", "superres-n-max-2"])
    def test_config_file_checked_like_flags(self, tmp_path, monkeypatch, capsys,
                                            argv, doc, message):
        monkeypatch.chdir(tmp_path)
        if doc is not None:
            Path("cfg.json").write_text(json.dumps(doc))
            argv = argv + ["--config", "cfg.json"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ") and message in captured.err
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ([] if doc is None else ["cfg.json"])

    def test_lambda0_takes_no_n_max(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["lambda0", "--c", "5", "--n-max", "3"]) == EXIT_CONFIG
        assert "--n-max" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []
        # a manifest that recorded n_max still replays: it is another command's field
        assert main(["lambda0", "--c", "5", "--out", "a.csv"]) == EXIT_OK
        doc = json.loads(Path("a.csv.manifest.json").read_text())
        doc["config"].update(n_max=40, out="b.csv")
        Path("old.json").write_text(json.dumps(doc))
        assert main(["lambda0", "--config", "old.json"]) == EXIT_OK
        assert Path("b.csv").read_text().replace("b.csv", "a.csv") == Path("a.csv").read_text()

    @pytest.mark.parametrize("command", ["spectrum", "lambda0", "hg-compare", "superres"])
    def test_recorded_manifest_replays(self, tmp_path, monkeypatch, command):
        # a manifest that recorded quad_order as null replays to its data rows;
        # the new files leave the key out
        manifest = RECORDED / f"{command.replace('-', '_')}.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["config"]["quad_order"] is None
        monkeypatch.chdir(tmp_path)
        assert main([command, "--config", str(manifest)]) == EXIT_OK
        out = doc["config"]["out"]
        (want_header, want), (header, got) = read_rows(RECORDED / out), read_rows(out)
        assert header == want_header and len(got) == len(want)
        for row, want_row in zip(got, want):
            for x, y in zip(row, want_row, strict=True):
                if y == "limited":
                    assert x == y
                else:
                    assert float(x) == pytest.approx(float(y), rel=1e-9, abs=1e-300)
        assert "quad_order" not in Path(out).read_text()
        assert "quad_order" not in json.loads(Path(out + ".manifest.json").read_text())["config"]

    def test_design_text_in_file_same_as_flag(self, tmp_path, monkeypatch):
        # the default third row is not a valid measurement with this design
        argv = ["superres", "--c", "5", "--tau", "0.3", "--design-row2", "0.3,0.3,0,0",
                "--out", "sr.csv"]
        for name in ("flag", "file"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "flag")
        assert main(argv + ["--design", "0.7,1,0.7,0.2"]) == EXIT_OK
        monkeypatch.chdir(tmp_path / "file")
        Path("cfg.json").write_text(json.dumps({"design": "0.7,1,0.7,0.2"}))
        assert main(argv + ["--config", "cfg.json"]) == EXIT_OK
        assert Path("sr.csv").read_bytes() == (tmp_path / "flag" / "sr.csv").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--c", "5"], ["hg-compare", "--c", "5", "--t-grid=-1:1:0.25"],
        ["lambda0", "--c-grid", "1:3:1"], ["superres", "--c", "4", "--tau", "0.4"],
    ], ids=lambda argv: argv[0])
    def test_manifest_rerun_reproduces_bytes(self, tmp_path, monkeypatch, argv, fmt):
        def outputs():
            data = Path(f"data.{fmt}").read_bytes()
            manifest = json.loads(Path(f"data.{fmt}.manifest.json").read_text())
            del manifest["created_utc"]
            return data, manifest

        for name in ("first", "second"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "first")
        assert main(argv + ["--format", fmt, "--out", f"data.{fmt}"]) == EXIT_OK
        first = outputs()
        monkeypatch.chdir(tmp_path / "second")
        manifest = tmp_path / "first" / f"data.{fmt}.manifest.json"
        assert main([argv[0], "--config", str(manifest)]) == EXIT_OK
        assert outputs() == first


class TestWindowLength:
    """With every time scaled by T, the CLI's outputs follow c alone."""

    @pytest.mark.parametrize("T", [0.5, 2.0])
    def test_hg_compare_distance_scales_with_window(self, tmp_path, T):
        # the same points in t / T on both grids
        sup = {}
        for t_scale in (1.0, T):
            out = tmp_path / f"hg{t_scale}.csv"
            grid = f"{-3 * t_scale}:{3 * t_scale}:{0.05 * t_scale}"
            assert main(["hg-compare", "--c", "10", "--T", str(t_scale),
                         f"--t-grid={grid}", "--out", str(out)]) == EXIT_OK
            _, rows = read_rows(out)
            assert len(rows) == 121
            sup[t_scale] = float(rows[0][4])
        assert sup[1.0] == pytest.approx(0.0920, abs=1e-4)
        assert sup[T] == pytest.approx(sup[1.0] / math.sqrt(T), rel=1e-9)

    def test_default_sigma_scales_with_window(self, tmp_path):
        rows = {}
        for T, tau in ((1.0, 0.15), (2.0, 0.3)):
            out = tmp_path / f"sr{T}.csv"
            assert main(["superres", "--c", "5", "--T", str(T), "--tau", str(tau),
                         "--out", str(out)]) == EXIT_OK
            header, (row,) = read_rows(out)
            rows[T] = dict(zip(header, row))
        one, two = rows[1.0], rows[2.0]
        scale = {"A": 1.0, "bound_phi2": 1.0, "bound_lambda0": 1.0, "F_tautau": 0.25,
                 "crb_tau": 2.0, "crb_tau0": 2.0, "crb_nu": 1.0}
        for key, factor in scale.items():
            assert float(two[key]) == pytest.approx(factor * float(one[key]), rel=1e-7), key
