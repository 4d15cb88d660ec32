"""Workload inputs, the calls that run them, and the checks on their outputs.

A workload is a list of *cases* per round.  Seeded cases draw their inputs
from narrow strata, so every seed does about the same work; fixed cases hold
inputs that do not depend on the seed and exercise a known fault of the
program, which is recorded on the case.  Every round attempts the same cases,
so the share of failed cases is the same in every run.

Only ``prolate.cli.main`` (for the CLI workloads) and the documented library
chain (for ``superres-generic``) are called, and always through the module
attribute, so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

DESIGN = (0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2)
ROW2 = (0.55, 0.55, 0.0, 0.0)
T_GRID = (-3.0, 3.0, 0.01)

# tolerances, each 7x or more above the largest discrepancy measured on
# cases that pass (README.md lists the measured figures)
TOL_DESIGN = 1e-7        # A and bound_phi2, absolute
TOL_LAMBDA = 1e-11       # eigenvalues, absolute
TOL_FISHER = 1e-6        # Fisher entries, relative to the largest entry
TOL_CRB = 1e-6           # CRB, relative, plus COND_SLACK * condition number
COND_SLACK = 1e-15
COND_NAN = (1e11, 1e13)  # between these, a NaN and a finite CRB are both accepted
TOL_SHAPE = 1e-6         # psi_2 against the Legendre-basis oracle, parity
TOL_PRO_ANG1 = 1e-9      # psi_2 against scipy's pro_ang1 (c <= 10)

#: relative spread of seeded c around each stratum's center; narrow, so that
#: every seed does about the same work
C_JITTER = 0.03

FAULT_NMAX = "cli-default-n-max"
FAULT_MIXING = "mode-mixing"
FAULT_FD_STEP = "fd-step"


@dataclass(frozen=True)
class Case:
    """One unit of user work; ``fault`` names the known fault of a fixed case."""

    label: str
    params: dict
    fault: str | None = None


@dataclass
class Outcome:
    case: Case
    seconds: float
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


class CaseError(Exception):
    """The CLI exited with a failure code."""


def _jitter(rng, center: float, rel: float) -> float:
    return float(center * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _call_cli(argv) -> tuple[int, str]:
    """Run ``prolate.cli.main`` in-process; return (exit code, stderr text)."""
    import prolate.cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = prolate.cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


# ------------------------------------------------------------ superres-sweep

class SuperresSweep:
    """``prolate superres`` over one c and a tau grid per case."""

    name = "superres-sweep"
    # (c center, regime, first tau range, tau step, taus).  The lowest
    # stratum sits where every row is singular (condition number >= 1e13),
    # the others where the Fisher matrix is well conditioned.  The tau counts
    # give every case about the same cost (1.2 to 1.4 s on the reference
    # machine), so the median case is taken over all cases, and the odd
    # stratum count keeps it off a boundary between strata.
    STRATA = (
        (1.2, "limited", (0.08, 0.10), 0.02, 2),
        (3.0, "ideal", (0.10, 0.15), 0.15, 3),
        (6.0, "limited", (0.10, 0.15), 0.15, 3),
        (12.0, "truncated", (0.10, 0.15), 0.15, 4),
        (45.0, "limited", (0.10, 0.15), 0.15, 2),
    )

    def plan(self, rng) -> list:
        cases = []
        for center, regime, (lo, hi), step, n_tau in self.STRATA:
            c = _jitter(rng, center, C_JITTER)
            tau1 = float(rng.uniform(lo, hi))
            taus = [tau1 + k * step for k in range(n_tau)]
            cases.append(Case(f"c={c:.3f} {regime}",
                              {"c": c, "regime": regime, "taus": taus}))
        return cases

    def run(self, case: Case, outdir: str):
        p = case.params
        out = os.path.join(outdir, "superres.csv")
        argv = ["superres", "--c", repr(p["c"]), "--regime", p["regime"], "--out", out]
        for tau in p["taus"]:
            argv += ["--tau", repr(tau)]
        code, err = _call_cli(argv)
        if code != 0:
            raise CaseError(f"exit {code}: {err}")
        return out

    def read(self, out):
        return _read_csv(out)

    def rows(self, output) -> int:
        return len(output[1])

    def check(self, case: Case, output) -> list:
        import oracles as O
        header, rows = output
        p = case.params
        c = p["c"]
        want = ["c", "tau", "tau0", "nu", "regime", "A", "bound_phi2",
                "bound_lambda0", "F_tautau", "crb_tau", "crb_tau0", "crb_nu"]
        if header != want:
            return [f"header {header}"]
        if len(rows) != len(p["taus"]):
            return [f"{len(rows)} rows for {len(p['taus'])} taus"]
        problems = []
        for n_max in _n_max_candidates(c):
            orc = O.SuperresOracle(c, O.GaussianPulse(O.default_sigma(c)), n_max=n_max,
                                   design=DESIGN, row2=ROW2, regime=p["regime"])
            problems = []
            for tau, row in zip(p["taus"], rows):
                rec = dict(zip(header, row))
                if float(rec["c"]) != c or float(rec["tau"]) != tau or rec["regime"] != p["regime"]:
                    problems.append(f"row echoes {row[:5]}")
                    continue
                got = {k: float(v) for k, v in rec.items() if k != "regime"}
                problems += _check_superres_row(orc, tau, got["A"], got["bound_phi2"],
                                                got["bound_lambda0"],
                                                np.array([[got["F_tautau"]]]),
                                                np.array([got["crb_tau"], got["crb_tau0"],
                                                          got["crb_nu"]]),
                                                p["regime"], full_fisher=False)
            if not problems:
                break
        return problems


def _n_max_candidates(c: float) -> list:
    import oracles as O
    n_max, ambiguous = O.auto_n_max(c)
    return [n_max, n_max - 1, n_max + 1] if ambiguous else [n_max]


def _check_superres_row(orc, tau, a_value, bound_phi2, bound_lambda0, fisher, bounds,
                        regime, *, full_fisher: bool) -> list:
    ref = orc.row(tau)
    problems = []
    if abs(a_value - ref.A) > TOL_DESIGN:
        problems.append(f"tau={tau:.4g}: A {a_value!r} vs {ref.A!r}")
    if abs(bound_phi2 - ref.bound_phi2) > TOL_DESIGN:
        problems.append(f"tau={tau:.4g}: bound_phi2 {bound_phi2!r} vs {ref.bound_phi2!r}")
    if abs(bound_lambda0 - ref.bound_lambda0) > TOL_LAMBDA:
        problems.append(f"tau={tau:.4g}: bound_lambda0 {bound_lambda0!r} vs {ref.bound_lambda0!r}")
    if not bound_phi2 <= bound_lambda0 < 1.0 or (regime == "limited" and a_value > bound_phi2):
        problems.append(f"tau={tau:.4g}: bound chain broken "
                        f"({a_value!r}, {bound_phi2!r}, {bound_lambda0!r})")
    ref_f = ref.fisher if full_fisher else ref.fisher[:1, :1]
    scale = float(np.max(np.abs(ref.fisher)))
    if not np.all(np.abs(fisher - ref_f) <= TOL_FISHER * scale):
        problems.append(f"tau={tau:.4g}: Fisher off by "
                        f"{float(np.max(np.abs(fisher - ref_f))) / scale:.2e} (relative)")
    nan = np.isnan(bounds)
    if np.any(nan) and not np.all(nan):
        problems.append(f"tau={tau:.4g}: partly NaN CRB {bounds.tolist()}")
    elif np.all(nan):
        if ref.cond < COND_NAN[0]:
            problems.append(f"tau={tau:.4g}: NaN CRB at condition number {ref.cond:.2e}")
    elif ref.cond > COND_NAN[1]:
        problems.append(f"tau={tau:.4g}: finite CRB at condition number {ref.cond:.2e}")
    elif ref.cond <= COND_NAN[0] or np.all(np.isfinite(ref.crb)):
        tol = TOL_CRB + COND_SLACK * ref.cond
        err = float(np.max(np.abs(bounds - ref.crb) / ref.crb))
        if not err <= tol:
            problems.append(f"tau={tau:.4g}: CRB off by {err:.2e} (tolerance {tol:.1e})")
    return problems


# -------------------------------------------------------------- basis-tables

class BasisTables:
    """``prolate spectrum``, ``lambda0`` and ``hg-compare`` at one c per case."""

    name = "basis-tables"
    # seeded strata stay where the CLI defaults resolve and the modes are
    # unmixed: c in [1.3, 1.5] (plunge index 1) and [2, 14]
    STRATA = ((1.3, 1.5), (2.0, 3.0), (3.0, 5.0), (5.0, 8.0), (8.0, 11.0), (11.0, 14.0))
    # fixed cases: the default n_max asks for unresolved modes (c = 0.1, 1)
    # and the modes mix in the cluster at 1 (c = 25, and c = 150 where the
    # quadrature order reaches 600)
    FIXED = ((0.1, FAULT_NMAX), (1.0, FAULT_NMAX), (25.0, FAULT_MIXING), (150.0, FAULT_MIXING))
    COMMANDS = ("spectrum", "lambda0", "hg-compare")

    def plan(self, rng) -> list:
        cases = [Case(f"c={c:.3f}", {"c": c})
                 for c in (float(rng.uniform(lo, hi)) for lo, hi in self.STRATA)]
        cases += [Case(f"c={c:g} fixed", {"c": c}, fault) for c, fault in self.FIXED]
        return cases

    def run(self, case: Case, outdir: str):
        c = case.params["c"]
        outs, errors = {}, []
        for cmd in self.COMMANDS:
            out = os.path.join(outdir, f"{cmd}.csv")
            code, err = _call_cli([cmd, "--c", repr(c), "--out", out])
            if code == 0:
                outs[cmd] = out
            else:
                errors.append(f"{cmd} exit {code}: {err}")
        if errors:
            raise CaseError("; ".join(errors))
        return outs

    def read(self, outs):
        tables = {}
        for cmd, path in outs.items():
            header, rows = _read_csv(path)
            tables[cmd] = (header, np.array(rows, dtype=float).reshape(len(rows), len(header)))
        return tables

    def rows(self, output) -> int:
        return sum(len(data) for _, data in output.values())

    def check(self, case: Case, output) -> list:
        import oracles as O
        c = case.params["c"]
        problems = []
        header, data = output["spectrum"]
        n_max = O.plunge(c) + 6
        if header != ["c", "n", "lambda"] or len(data) != n_max + 1:
            problems.append(f"spectrum: {len(data)} rows, header {header}")
        else:
            lam = data[:, 2]
            if np.any(data[:, 0] != c) or np.any(data[:, 1] != np.arange(n_max + 1)):
                problems.append("spectrum: c or n column wrong")
            if np.any(np.diff(lam) > 0.0) or lam[0] >= 1.0 or lam[-1] < 0.0:
                problems.append("spectrum: lambda not descending in [0, 1)")
            err = float(np.max(np.abs(lam - O.lambdas(c, lam.size))))
            if err > TOL_LAMBDA:
                problems.append(f"spectrum: lambda off by {err:.2e}")
        header, data = output["lambda0"]
        if header != ["c", "lambda0"] or len(data) != 1:
            problems.append(f"lambda0: {len(data)} rows, header {header}")
        else:
            err = abs(float(data[0, 1]) - float(O.lambdas(c, 1)[0]))
            if err > TOL_LAMBDA:
                problems.append(f"lambda0: off by {err:.2e}")
        problems += self._check_hg(c, *output["hg-compare"])
        return problems

    @staticmethod
    def _check_hg(c: float, header, data) -> list:
        import oracles as O
        start, stop, step = T_GRID
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        t_want = np.array([start + i * step for i in range(count)])
        if header != ["c", "t", "psi2", "psi2_hg", "sup_distance"] or len(data) != count:
            return [f"hg-compare: {len(data)} rows, header {header}"]
        t, psi, hg = data[:, 1], data[:, 2], data[:, 3]
        problems = []
        if np.any(data[:, 0] != c) or np.any(np.abs(t - t_want) > 1e-12):
            problems.append("hg-compare: c or t column wrong")
        if np.max(np.abs(hg - O.hg2(c, t))) > 1e-12:
            problems.append("hg-compare: psi2_hg differs from the closed form")
        if np.any(data[:, 4] != np.max(np.abs(psi - hg))):
            problems.append("hg-compare: sup_distance is not max|psi2 - psi2_hg|")
        scale = float(np.max(np.abs(psi)))
        parity = float(np.max(np.abs(psi - psi[::-1]))) / scale
        if parity > TOL_SHAPE:
            problems.append(f"hg-compare: psi2 parity residual {parity:.2e}")
        if not psi[count // 2] < 0.0:
            problems.append("hg-compare: psi2(0) is not negative (Hermite sign convention)")
        ref = O.mode_on_line(c, 2, t)
        ref *= math.copysign(1.0, float(np.dot(ref, psi)))
        err = float(np.max(np.abs(psi - ref))) / scale
        if err > TOL_SHAPE:
            problems.append(f"hg-compare: psi2 off the Legendre-basis mode by {err:.2e}")
        if c <= 10.0:
            from scipy.special import pro_ang1
            inside = np.abs(t) < 1.0
            ang, _ = pro_ang1(0, 2, c, t[inside])
            k = float(np.dot(psi[inside], ang) / np.dot(ang, ang))
            err = float(np.max(np.abs(psi[inside] - k * ang))) / scale
            if err > TOL_PRO_ANG1:
                problems.append(f"hg-compare: psi2 not proportional to pro_ang1 ({err:.2e})")
        return problems


# ---------------------------------------------------------- superres-generic

def _gaussian_callable(sigma: float):
    """A unit-norm Gaussian with no ``derivative``, ``sigma`` or transform."""
    amp = (2.0 * math.pi * sigma * sigma) ** -0.25
    four_s2 = 4.0 * sigma * sigma

    def pulse(t):
        t = np.asarray(t, dtype=float)
        return amp * np.exp(-t * t / four_s2)

    return pulse


def _sech_callable(a: float):
    """sech(t / a) / sqrt(2 a), unit norm."""
    norm = 1.0 / math.sqrt(2.0 * a)

    def pulse(t):
        return norm / np.cosh(np.asarray(t, dtype=float) / a)

    return pulse


class SuperresGeneric:
    """The documented library chain on pulses given as plain callables."""

    name = "superres-generic"
    # (pulse, c center, first tau range, taus), taus 0.15 apart; width = the
    # program's default_psf_sigma(c).  Every stratum keeps the finite-
    # difference noise of gamma_modes below its 1e-3 limit.  A sech row costs
    # about twice a Gaussian one (wider real-line rules), so sech cases take
    # one tau and Gaussian cases two, and every case costs about the same.
    STRATA = (
        ("gauss", 2.5, (0.18, 0.24), 2),
        ("gauss", 4.0, (0.15, 0.20), 2),
        ("gauss", 5.3, (0.15, 0.20), 2),
        ("sech", 2.5, (0.18, 0.24), 1),
        ("sech", 3.3, (0.15, 0.20), 1),
    )
    # the default finite-difference step T/50 is too coarse for these widths
    FIXED = (("gauss", 10.0, 0.2), ("sech", 6.0, 0.2))
    TAU_STEP = 0.15

    def plan(self, rng) -> list:
        cases = []
        for pulse, center, (t_lo, t_hi), n_tau in self.STRATA:
            c = _jitter(rng, center, C_JITTER)
            tau1 = float(rng.uniform(t_lo, t_hi))
            taus = [tau1 + k * self.TAU_STEP for k in range(n_tau)]
            cases.append(Case(f"{pulse} c={c:.3f}", {"pulse": pulse, "c": c, "taus": taus}))
        for pulse, c, tau1 in self.FIXED:
            cases.append(Case(f"{pulse} c={c:g} fixed", {"pulse": pulse, "c": c, "taus": [tau1]},
                              FAULT_FD_STEP))
        return cases

    def run(self, case: Case, outdir: str):
        import prolate as P
        p = case.params
        c = p["c"]
        width = P.default_psf_sigma(c)
        psf = (_gaussian_callable if p["pulse"] == "gauss" else _sech_callable)(width)
        basis = P.build_basis(P.SlepianParams(c=c))
        model = P.TwoPulseModel(psf, tau=p["taus"][0])
        dmodes = P.gram_schmidt(P.gamma_modes(model, basis))
        design = P.design_from_sphere(*DESIGN, row2=ROW2)
        povm = P.optimal_povm(design, dmodes)
        a_value = P.efficiency_factor(P.time_limited_design(design, dmodes, basis))
        bound_phi2, bound_lambda0 = P.efficiency_bounds(dmodes, basis)
        rows = []
        for tau in p["taus"]:
            fisher = P.superres_fisher(P.TwoPulseModel(psf, tau=tau), povm, basis,
                                       "limited", tau_floor=1e-4 * width)
            try:
                bounds = P.crb(fisher)
            except P.SingularFisherError:
                bounds = np.full(3, math.nan)
            rows.append((tau, fisher.matrix, bounds))
        return {"A": a_value, "bound_phi2": bound_phi2, "bound_lambda0": bound_lambda0,
                "rows": rows}

    def read(self, output):
        return output

    def rows(self, output) -> int:
        return len(output["rows"])

    def check(self, case: Case, output) -> list:
        import oracles as O
        p = case.params
        c = p["c"]
        width = O.default_sigma(c)
        pulse = O.GaussianPulse(width) if p["pulse"] == "gauss" else O.SechPulse(width)
        if len(output["rows"]) != len(p["taus"]):
            return ["row count"]
        problems = []
        for n_max in _n_max_candidates(c):
            orc = O.SuperresOracle(c, pulse, n_max=n_max, design=DESIGN, row2=ROW2,
                                   regime="limited")
            problems = []
            for tau, fisher, bounds in output["rows"]:
                problems += _check_superres_row(orc, tau, output["A"], output["bound_phi2"],
                                                output["bound_lambda0"], fisher, bounds,
                                                "limited", full_fisher=True)
            if not problems:
                break
        return problems


WORKLOADS = {w.name: w for w in (SuperresSweep(), BasisTables(), SuperresGeneric())}

#: how each known fault shows, so a fixed case failing any other way is an error
FAULT_SIGNS = {
    FAULT_NMAX: "numerically distinguishable from zero",
    FAULT_MIXING: "parity residual",
    FAULT_FD_STEP: "FiniteDifferenceError",
}


def expected_failure(outcome: Outcome) -> bool:
    """True if a failed fixed case failed in the way its fault predicts."""
    fault = outcome.case.fault
    if fault is None:
        return False
    text = outcome.error or "; ".join(outcome.problems)
    return FAULT_SIGNS[fault] in text
