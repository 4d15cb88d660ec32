"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from prolate import (GaussianPsf, Povm, ProbeState, SlepianParams,
                     TwoPulseModel, build_basis, crb, default_psf_sigma,
                     design_from_sphere, efficiency_bounds, efficiency_factor,
                     eval_psi, extension_matrix, fisher_matrix, gamma_modes,
                     gram_schmidt, hg_eval, HermiteGaussMode, optimal_povm,
                     plunge_index, probabilities_ideal, probabilities_limited,
                     probe_from_model, superres_fisher, time_limit_povm,
                     time_limited_design)
from prolate.cli import main as cli_main
from prolate.quadrature import gauss_legendre

import oracles

# frozen after the first verified run: sup-distance ratio c=20 over c=1
HG_DISTANCE_RATIO = 0.0825


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.2f} s)")


def test_criterion_01_lambda0_at_c5_with_oracle():
    with criterion(1, "lambda0(5) in [0.998, 1) and matches the 10x-order "
                      "oracle to 1e-8, under 1 s"):
        started = time.perf_counter()
        basis = build_basis(SlepianParams(5.0), n_max=8)
        elapsed = time.perf_counter() - started  # the code under test only
        lam0 = float(basis.lambdas[0])
        dense = float(oracles.dense_nystrom_lambdas(5.0, order=640, n_top=1)[0])
        assert 0.998 <= lam0 < 1.0
        assert abs(lam0 - dense) < 1e-8
        assert elapsed < 1.0


def test_criterion_02_double_orthogonality():
    with criterion(2, "double orthogonality residuals < 1e-7 (real line) and "
                      "< 1e-9 (window) for c in {1, 2, 5, 10, 20}, under 30 s"):
        started = time.perf_counter()
        worst_line, worst_window = 0.0, 0.0
        for c in (1.0, 2.0, 5.0, 10.0, 20.0):
            n_modes = plunge_index(c) + 5  # indices 0 .. plunge + 4
            basis = build_basis(SlepianParams(c), n_max=n_modes - 1)
            eye = np.eye(n_modes)
            gram_line = oracles.whole_line_gram(basis, n_modes)
            worst_line = max(worst_line, float(np.max(np.abs(gram_line - eye))))
            # window route: independent, finer quadrature rule
            nodes_f, w_f = gauss_legendre(200, -1.0, 1.0)
            psi_f = extension_matrix(basis, nodes_f)
            gram_win = psi_f @ (w_f * psi_f).T
            target = np.diag(basis.lambdas)
            worst_window = max(worst_window, float(np.max(np.abs(gram_win - target))))
        elapsed = time.perf_counter() - started
        assert worst_line < 1e-7, f"real-line residual {worst_line:.3e}"
        assert worst_window < 1e-9, f"window residual {worst_window:.3e}"
        assert elapsed < 30.0


def test_criterion_03_spectrum_plunge_profile():
    with criterion(3, "eigenvalue plunge profile for ceil(2c/pi) in {5, 10, 20}, "
                      "under 10 s"):
        started = time.perf_counter()
        for k in (5, 10, 20):
            c = k * math.pi / 2.0
            basis = build_basis(SlepianParams(c), n_max=k + 6)
            lam = basis.lambdas
            assert np.all(lam[: k - 3] > 0.9), f"head not saturated at c={c}"
            assert np.all(lam[k + 4:] < 0.1), f"tail not collapsed at c={c}"
            last_above = int(np.max(np.nonzero(lam > 0.9)[0]))
            first_below = int(np.min(np.nonzero(lam < 0.1)[0]))
            assert first_below - last_above <= 6
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0


def test_criterion_04_hermite_gauss_convergence():
    with criterion(4, "sup-distance psi_2 vs hg_2 strictly decreasing over "
                      "c = 1, 5, 10, 20 with frozen ratio, under 5 s"):
        started = time.perf_counter()
        t = np.linspace(-3.0, 3.0, 1201)
        distances = []
        for c in (1.0, 5.0, 10.0, 20.0):
            basis = build_basis(SlepianParams(c), n_max=max(4, plunge_index(c) + 2))
            dist = float(np.max(np.abs(eval_psi(basis, 2, t)
                                       - hg_eval(HermiteGaussMode(2, c), t))))
            distances.append(dist)
        elapsed = time.perf_counter() - started
        assert all(a > b for a, b in zip(distances, distances[1:]))
        ratio = distances[-1] / distances[0]
        assert ratio < 0.10
        assert ratio == pytest.approx(HG_DISTANCE_RATIO, rel=0.05)
        assert elapsed < 5.0


def test_criterion_05_probability_pipeline_identity():
    with criterion(5, "limited probabilities equal ideal(time-limited POVM) to "
                      "1e-12 over 100 random pairs, all normalized, under 10 s"):
        started = time.perf_counter()
        basis = build_basis(SlepianParams(5.0), n_max=8)
        rng = np.random.default_rng(20260808)
        worst_gap, worst_norm = 0.0, 0.0
        for _ in range(100):
            rows = rng.standard_normal((2, 9))
            rows /= (np.linalg.norm(rows, axis=1)[:, None]
                     * rng.uniform(1.0, 2.0, 2)[:, None])
            wts = rng.uniform(0.2, 1.0, 2)
            probe = ProbeState(wts / wts.sum(), rows)
            v = rng.standard_normal((3, 9))
            v /= (np.linalg.norm(v, axis=1)[:, None]
                  * rng.uniform(1.0, 2.0, 3)[:, None])
            top = float(np.linalg.eigvalsh(v.T @ v)[-1])
            povm = Povm(v * math.sqrt(0.98 / top))
            p_limited = probabilities_limited(probe, povm, basis)
            p_piped = probabilities_ideal(probe, time_limit_povm(povm, basis))
            worst_gap = max(worst_gap, float(np.max(np.abs(p_limited - p_piped))))
            for p in (p_limited, p_piped):
                worst_norm = max(worst_norm, abs(float(p.sum()) - 1.0))
                assert np.all(p >= 0.0)
        elapsed = time.perf_counter() - started
        assert worst_gap < 1e-12, f"route gap {worst_gap:.3e}"
        assert worst_norm < 1e-10, f"normalization defect {worst_norm:.3e}"
        assert elapsed < 10.0


def test_criterion_06_fisher_closed_forms():
    with criterion(6, "Fisher matches Bernoulli/multinomial closed forms to "
                      "1e-6; CRB inverts diagonal cases, under 1 s"):
        started = time.perf_counter()
        fm = fisher_matrix(lambda th: np.array([th[0], 1.0 - th[0]]), [0.3])
        assert abs(fm.matrix[0, 0] - oracles.bernoulli_fisher(0.3)) < 1e-6

        def trinomial(th):
            return np.array([th[0], th[1], 1.0 - th[0] - th[1]])

        t1, t2 = 0.25, 0.4
        fm3 = fisher_matrix(trinomial, [t1, t2])
        p3 = 1.0 - t1 - t2
        expect = np.array([[1.0 / t1 + 1.0 / p3, 1.0 / p3],
                           [1.0 / p3, 1.0 / t2 + 1.0 / p3]])
        assert np.max(np.abs(fm3.matrix - expect)) < 1e-6

        from prolate import FisherMatrix
        diag = FisherMatrix(np.diag([4.0, 25.0]), ("a", "b"))
        assert np.allclose(crb(diag), [0.5, 0.2], rtol=1e-12)
        bern = crb(fm)[0]
        assert abs(bern - math.sqrt(0.21)) < 1e-6
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0


def test_criterion_07_central_efficiency_bound():
    with criterion(7, "time-limited efficiency <= sum phi2^2 lambda <= lambda0 "
                      "(1e-9 slack) over 240 sweep configurations, gap < 1 "
                      "strictly, under 2 min"):
        started = time.perf_counter()
        rng = np.random.default_rng(7112026)
        checked = 0
        for c in (1.0, 2.0, 5.0, 10.0):
            basis = build_basis(SlepianParams(c), n_max=None)
            sigma = default_psf_sigma(c)
            for tau0 in (0.0, 0.15):
                model = TwoPulseModel(GaussianPsf(sigma), tau=0.5 * sigma, tau0=tau0)
                dbasis = gram_schmidt(gamma_modes(model, basis))
                bound_phi2, bound_lambda0 = efficiency_bounds(dbasis, basis)
                assert bound_phi2 <= bound_lambda0 + 1e-9
                assert bound_phi2 < 1.0, "window energy must stay below unity"
                for _ in range(30):
                    # r1^2 + r2^2 < 1 keeps the summed operator below one
                    r1, r2 = rng.uniform(0.05, 0.7, 2)
                    phi1, phi2 = rng.uniform(0.05, math.pi / 2 - 0.05, 2)
                    design = design_from_sphere(r1, phi1, r2, phi2)
                    optimal_povm(design, dbasis)  # refuses an invalid POVM
                    tl = time_limited_design(design, dbasis, basis)
                    a_limited = efficiency_factor(tl)
                    assert a_limited <= bound_phi2 + 1e-9
                    assert efficiency_factor(design) <= 1.0
                    checked += 1
        elapsed = time.perf_counter() - started
        assert checked >= 200
        assert elapsed < 120.0


def test_criterion_08_sphere_identity():
    with criterion(8, "efficiency of sphere designs equals r2^2 sin^2(phi1-phi2) "
                      "to 1e-12 over randomized inputs"):
        rng = np.random.default_rng(88)
        for _ in range(500):
            r1, r2 = rng.uniform(0.01, 2.0, 2)
            base = rng.uniform(0.03, math.pi / 2 - 0.03, 2)
            phi1, phi2 = base + rng.integers(-3, 4, 2) * math.pi / 2
            design = design_from_sphere(r1, phi1, r2, phi2)
            expect = r2 ** 2 * math.sin(phi1 - phi2) ** 2
            assert abs(efficiency_factor(design) - expect) < 1e-12


def test_criterion_09_large_c_recovery():
    with criterion(9, "at c = 50 limited probabilities and F_tautau sit within "
                      "1% of ideal, under 30 s"):
        started = time.perf_counter()
        c = 50.0
        basis = build_basis(SlepianParams(c), n_max=None)
        sigma = default_psf_sigma(c)
        model = TwoPulseModel(GaussianPsf(sigma), tau=sigma, tau0=0.0, nu=0.5)
        design = design_from_sphere(0.7, math.pi / 3, 0.7, math.pi / 3 - 1.2,
                                    row2=(0.55, 0.55, 0.0, 0.0))
        dbasis = gram_schmidt(gamma_modes(model, basis))
        povm = optimal_povm(design, dbasis)
        probe = probe_from_model(model, basis)
        p_ideal = probabilities_ideal(probe, povm)
        p_limited = probabilities_limited(probe, povm, basis)
        mask = p_ideal > 1e-12
        prob_gap = float(np.max(np.abs(p_limited - p_ideal)[mask] / p_ideal[mask]))
        f_ideal = superres_fisher(model, povm, basis, "ideal")
        f_limited = superres_fisher(model, povm, basis, "limited")
        fisher_gap = abs(f_limited.matrix[0, 0] - f_ideal.matrix[0, 0]) / f_ideal.matrix[0, 0]
        elapsed = time.perf_counter() - started
        assert prob_gap < 0.01, f"probability gap {prob_gap:.3e}"
        assert fisher_gap < 0.01, f"F_tautau gap {fisher_gap:.3e}"
        assert elapsed < 30.0


def test_criterion_10_manifest_determinism(tmp_path, monkeypatch):
    with criterion(10, "superres sweep re-run from its manifest reproduces "
                       "byte-identical data files"):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        argv = ["superres", "--c", "2", "--c", "5", "--tau", "0.3", "--tau", "0.6",
                "--nu", "0.4", "--out", "sweep.csv"]
        monkeypatch.chdir(first)
        assert cli_main(argv) == 0
        manifest = json.loads((first / "sweep.csv.manifest.json").read_text())
        recorded_hash = manifest["outputs"][0]["sha256"]
        monkeypatch.chdir(second)
        assert cli_main(["superres", "--config",
                         str(first / "sweep.csv.manifest.json")]) == 0
        original = (first / "sweep.csv").read_bytes()
        rerun = (second / "sweep.csv").read_bytes()
        assert rerun == original
        import hashlib
        assert hashlib.sha256(rerun).hexdigest() == recorded_hash
