"""Command-line front end: eigenvalue tables, mode comparisons, sweeps.

Every command writes one data file (CSV or JSON) plus a manifest carrying the
resolved configuration and output hashes.  Data files contain no timestamps,
so re-running a manifest reproduces them byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import io as pio
from .basis import (build_basis, default_quad_order, eval_psi, lambda0_curve,
                    plunge_index)
from .errors import ProlateError, SingularFisherError
from .hermite import HermiteGaussMode, hg_eval
from .metrology import crb
from .params import SlepianParams
from .superres import (GaussianPsf, TwoPulseModel, default_psf_sigma,
                       design_from_sphere, efficiency_bounds, efficiency_factor,
                       gamma_modes, gram_schmidt, optimal_povm, superres_fisher,
                       time_limited_design)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_DEFAULT_DESIGN = (0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2)
# third element mixes phi_0 and phi_1: needed so the centroid and the
# intensity ratio stay identifiable at the symmetric point
_DEFAULT_ROW2 = (0.55, 0.55, 0.0, 0.0)


class ConfigError(ValueError):
    """Bad or missing run configuration."""


@dataclass
class RunConfig:
    """Fully resolved, serializable description of one CLI run."""

    command: str
    c_values: tuple = ()
    T: float = 1.0
    n_max: int | None = None
    quad_order: int | None = None
    tau_values: tuple = ()
    tau0: float = 0.0
    nu: float = 0.5
    sigma: float | None = None
    design: tuple = _DEFAULT_DESIGN
    design_row2: tuple = _DEFAULT_ROW2
    regime: str = "limited"
    t_grid: tuple = (-3.0, 3.0, 0.01)
    out: str = "out.csv"
    format: str = "csv"


def grid_values(start: float, stop: float, step: float) -> tuple:
    if step <= 0.0 or stop < start:
        raise ConfigError(f"grid {start}:{stop}:{step} must have positive step "
                          f"and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def grid_triple(grid) -> tuple:
    """Validated (start, stop, step) from "START:STOP:STEP" text or three numbers."""
    parts = grid.split(":") if isinstance(grid, str) else grid
    try:
        start, stop, step = (float(x) for x in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid must be start:stop:step, got {grid!r}") from exc
    grid_values(start, stop, step)
    return start, stop, step


def parse_grid(text: str) -> tuple:
    return grid_values(*grid_triple(text))


def parse_floats(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, got {text!r}")
    try:
        return tuple(float(x) for x in parts)
    except ValueError as exc:
        raise ConfigError(f"{what} must be numeric, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolate",
        description="Concentration spectra, mode comparisons and "
                    "band/time-limited superresolution sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--c", action="append", type=float, default=None,
                       help="Slepian frequency; repeat for several values")
        p.add_argument("--c-grid", default=None, metavar="START:STOP:STEP")
        p.add_argument("--T", type=float, default=None, help="window half-length")
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--quad-order", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None,
                       help="JSON config file or a previously emitted manifest; "
                            "flags override file values")

    p = sub.add_parser("spectrum", help="eigenvalue table (c, n, lambda_n)")
    common(p)

    p = sub.add_parser("hg-compare",
                       help="second prolate mode against the second Hermite-Gauss mode")
    common(p)
    p.add_argument("--t-grid", default=None, metavar="START:STOP:STEP")

    p = sub.add_parser("lambda0", help="largest eigenvalue as a function of c")
    common(p)

    p = sub.add_parser("superres", help="efficiency factors, bounds, Fisher/CRB sweep")
    common(p)
    p.add_argument("--tau", action="append", type=float, default=None,
                   help="pulse separation; repeat for several values")
    p.add_argument("--tau-grid", default=None, metavar="START:STOP:STEP")
    p.add_argument("--tau0", type=float, default=None, help="centroid")
    p.add_argument("--nu", type=float, default=None, help="relative intensity")
    p.add_argument("--sigma", type=float, default=None,
                   help="pulse width (default ties it to the bandwidth)")
    p.add_argument("--design", default=None, metavar="R1,PHI1,R2,PHI2")
    p.add_argument("--design-row2", default=None, metavar="C20,C21,C22,C23")
    p.add_argument("--regime", choices=("ideal", "limited", "truncated"), default=None)
    return parser


_COMMON_KEYS = ("T", "n_max", "quad_order", "out", "format")
_SUPERRES_KEYS = ("tau0", "nu", "sigma", "regime")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        doc = pio.load_json(args.config)
        file_cfg = doc.get("config", doc)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config!r} is not a key-value document")

    cfg = RunConfig(command=args.command)

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_cfg and file_cfg[key] is not None:
            return file_cfg[key]
        return fallback

    c_values = list(args.c or [])
    if args.c_grid:
        c_values.extend(parse_grid(args.c_grid))
    if not c_values:
        c_values = [float(x) for x in file_cfg.get("c_values", [])]
    if not c_values:
        c_values = {
            "spectrum": [2.5 * math.pi, 5.0 * math.pi, 10.0 * math.pi],
            "hg-compare": [1.0, 5.0, 10.0, 20.0],
            "lambda0": list(parse_grid("0.1:10:0.1")),
            "superres": [],
        }[args.command]
    if not c_values:
        raise ConfigError("no c values given (use --c or --c-grid)")
    if any(c <= 0.0 for c in c_values):
        raise ConfigError("all c values must be positive")
    cfg.c_values = tuple(float(c) for c in c_values)

    for key in _COMMON_KEYS:
        setattr(cfg, key, pick(getattr(args, key), key, getattr(cfg, key)))
    cfg.T = float(cfg.T)
    if cfg.T <= 0.0:
        raise ConfigError("T must be positive")
    if cfg.n_max is not None:
        cfg.n_max = int(cfg.n_max)
        if cfg.n_max < 0:
            raise ConfigError("n_max must be >= 0")
    if cfg.quad_order is not None:
        cfg.quad_order = int(cfg.quad_order)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.out == "out.csv":
        cfg.out = f"{args.command.replace('-', '_')}.{cfg.format}"

    if args.command == "hg-compare":
        grid = args.t_grid or file_cfg.get("t_grid")
        if grid is not None:
            cfg.t_grid = grid_triple(grid)

    if args.command == "superres":
        for key in _SUPERRES_KEYS:
            setattr(cfg, key, pick(getattr(args, key), key, getattr(cfg, key)))
        cfg.tau0 = float(cfg.tau0)
        cfg.nu = float(cfg.nu)
        if not (0.0 <= cfg.nu <= 1.0):
            raise ConfigError("nu must lie in [0, 1]")
        if cfg.sigma is not None:
            cfg.sigma = float(cfg.sigma)
            if cfg.sigma <= 0.0:
                raise ConfigError("sigma must be positive")
        design = pick(parse_floats(args.design, 4, "--design") if args.design else None,
                      "design", cfg.design)
        row2 = pick(parse_floats(args.design_row2, 4, "--design-row2")
                    if args.design_row2 else None, "design_row2", cfg.design_row2)
        cfg.design = tuple(float(x) for x in design)
        cfg.design_row2 = tuple(float(x) for x in row2)
        tau_values = list(args.tau or [])
        if args.tau_grid:
            tau_values.extend(parse_grid(args.tau_grid))
        if not tau_values:
            tau_values = [float(x) for x in file_cfg.get("tau_values", [])]
        cfg.tau_values = tuple(float(t) for t in tau_values)
        if any(t <= 0.0 for t in cfg.tau_values):
            raise ConfigError("all tau values must be positive")
    return cfg


def _basis_for(cfg: RunConfig, c: float, n_max: int | None):
    # --quad-order is raised to the minimum the kernel and n_max modes need
    quad = cfg.quad_order
    if quad is not None:
        quad = max(quad, default_quad_order(c, n_max or 0))
    return build_basis(SlepianParams(c=c, T=cfg.T), n_max=n_max, quad_order=quad)


def run_spectrum(cfg: RunConfig):
    rows = []
    for c in cfg.c_values:
        n_max = cfg.n_max if cfg.n_max is not None else plunge_index(c) + 6
        basis = _basis_for(cfg, c, n_max)
        for n, lam in enumerate(basis.lambdas):
            rows.append((c, n, float(lam)))
    return ("c", "n", "lambda"), rows


def run_hg_compare(cfg: RunConfig):
    t = np.array(grid_values(*cfg.t_grid))
    rows = []
    for c in cfg.c_values:
        n_max = cfg.n_max if cfg.n_max is not None else max(4, plunge_index(c) + 2)
        basis = _basis_for(cfg, c, n_max)
        psi2 = eval_psi(basis, 2, t)
        hg2 = hg_eval(HermiteGaussMode(2, c), t)
        sup = float(np.max(np.abs(psi2 - hg2)))
        rows.extend((c, float(tv), float(pv), float(hv), sup)
                    for tv, pv, hv in zip(t, psi2, hg2))
    return ("c", "t", "psi2", "psi2_hg", "sup_distance"), rows


def run_lambda0(cfg: RunConfig):
    table = lambda0_curve(cfg.c_values, cfg.T, cfg.quad_order)
    return ("c", "lambda0"), [(float(c), float(lam)) for c, lam in table]


def run_superres(cfg: RunConfig):
    r1, phi1, r2, phi2 = cfg.design
    design = design_from_sphere(r1, phi1, r2, phi2, row2=cfg.design_row2)
    rows = []
    for c in cfg.c_values:
        basis = _basis_for(cfg, c, cfg.n_max)
        sigma = cfg.sigma if cfg.sigma is not None else default_psf_sigma(c)
        taus = cfg.tau_values or (sigma,)
        model0 = TwoPulseModel(GaussianPsf(sigma), tau=taus[0], tau0=cfg.tau0, nu=cfg.nu)
        dbasis = gram_schmidt(gamma_modes(model0, basis))
        povm = optimal_povm(design, dbasis)
        tl_design = time_limited_design(design, dbasis, basis)
        bound_phi2, bound_lambda0 = efficiency_bounds(dbasis, basis)
        if cfg.regime == "limited":
            a_value = efficiency_factor(tl_design)
        else:
            a_value = efficiency_factor(design)
        for tau in taus:
            model = TwoPulseModel(GaussianPsf(sigma), tau=tau, tau0=cfg.tau0, nu=cfg.nu)
            fisher = superres_fisher(model, povm, basis, cfg.regime)
            try:
                bounds = crb(fisher)
            except SingularFisherError as exc:
                print(f"c={c!r} tau={tau!r}: CRBs written as nan: {exc}", file=sys.stderr)
                bounds = np.full(3, math.nan)
            rows.append((c, tau, cfg.tau0, cfg.nu, cfg.regime, a_value,
                         bound_phi2, bound_lambda0, float(fisher.matrix[0, 0]),
                         float(bounds[0]), float(bounds[1]), float(bounds[2])))
    header = ("c", "tau", "tau0", "nu", "regime", "A", "bound_phi2",
              "bound_lambda0", "F_tautau", "crb_tau", "crb_tau0", "crb_nu")
    return header, rows


_RUNNERS = {
    "spectrum": run_spectrum,
    "hg-compare": run_hg_compare,
    "lambda0": run_lambda0,
    "superres": run_superres,
}


def _sanitize(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def write_output(cfg: RunConfig, header, rows) -> list:
    config = asdict(cfg)
    if cfg.format == "csv":
        meta = {"schema_version": pio.SCHEMA_VERSION,
                "config": json.dumps(config, separators=(",", ":"))}
        pio.write_csv(cfg.out, header, rows, meta)
    else:
        doc = {
            "schema_version": pio.SCHEMA_VERSION,
            "config": config,
            "columns": list(header),
            "rows": [[_sanitize(x) for x in row] for row in rows],
        }
        pio.write_json(cfg.out, doc)
    manifest = f"{cfg.out}.manifest.json"
    pio.write_manifest(manifest, cfg.command, config, [cfg.out])
    return [cfg.out, manifest]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows = _RUNNERS[cfg.command](cfg)
    except (ProlateError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        files = write_output(cfg, header, rows)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print("wrote " + " ".join(files))
    return EXIT_OK


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
