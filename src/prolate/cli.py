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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import io as pio
from .basis import MAX_LEGENDRE_SIZE, _legendre_shape, build_basis, eval_psi, plunge_index
from .errors import ProlateError, SingularFisherError
from .hermite import hg_eval
from .metrology import crb
from .params import SlepianParams
from .superres import (REGIMES, GaussianPsf, TwoPulseModel, default_psf_sigma,
                       design_from_sphere, efficiency_bounds, efficiency_factor,
                       gamma_modes, gram_schmidt, optimal_povm, superres_fisher,
                       time_limited_design)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_MAX_GRID_POINTS = 10 ** 6  # a larger grid is refused before one value is made


class ConfigError(ValueError):
    """Bad or missing run configuration."""


def _grid_count(start: float, stop: float, step: float) -> int:
    """Number of points of a valid grid, found without making one."""
    for name, x in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(x):
            raise ConfigError(f"{start}:{stop}:{step} has a non-finite {name}")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"{start}:{stop}:{step} must have positive step "
                          f"and stop >= start")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # also refuses a span that overflows
        raise ConfigError(f"{start}:{stop}:{step} holds more than {_MAX_GRID_POINTS} points")
    return int(math.floor(span)) + 1


def grid_values(start: float, stop: float, step: float) -> tuple:
    return tuple(start + i * step for i in range(_grid_count(start, stop, step)))


def grid_triple(grid) -> tuple:
    """Validated (start, stop, step) from "START:STOP:STEP" text or three numbers."""
    parts = grid.split(":") if isinstance(grid, str) else grid
    try:
        start, stop, step = (float(x) for x in parts)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"must be start:stop:step, got {grid!r}") from exc
    _grid_count(start, stop, step)
    return start, stop, step


def parse_grid(text: str) -> tuple:
    return grid_values(*grid_triple(text))


# Field parsers.  Each takes a flag's text or the JSON value of the same key
# in a config file, and raises a ConfigError whose message follows the flag.

def _typed(convert, what: str, *json_types):
    """``convert`` of flag text, or of a JSON value of one of ``json_types``."""
    def parse(value):
        try:
            if type(value) in (str, *json_types):  # so a bool is no number
                return convert(value)
        except (ValueError, OverflowError):
            pass
        raise ConfigError(f"must be {what}, got {value!r}")
    return parse


def _where(parse, test, need: str):
    """``parse``, then a check that its result passes ``test``."""
    def checked(value):
        x = parse(value)
        if not test(x):
            raise ConfigError(f"must be {need}, got {x!r}")
        return x
    return checked


_text = _typed(str, "a string")
_number = _where(_typed(float, "a number", int, float), math.isfinite, "finite")
_positive = _where(_number, lambda x: x > 0.0, "positive")
_fraction = _where(_number, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_count = _where(_typed(int, "an integer", int), lambda n: n >= 0, ">= 0")


def _choice(*options):
    return _where(_text, lambda x: x in options, "one of " + ", ".join(options))


def _positives(values) -> tuple:
    """The texts of a repeated flag, or a JSON list."""
    if not isinstance(values, list):
        raise ConfigError(f"must be a list of numbers, got {values!r}")
    return tuple(_positive(x) for x in values)


def _four_numbers(value) -> tuple:
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, list) or len(parts) != 4:
        raise ConfigError(f"needs 4 comma-separated numbers, got {value!r}")
    return tuple(_number(x) for x in parts)


_ALL = ("spectrum", "hg-compare", "lambda0", "superres")
_SUPERRES = ("superres",)
# the modes a command needs: psi_2 for hg-compare, four derivative rows for superres
_N_MAX_LEAST = {"spectrum": 0, "hg-compare": 2, "superres": 3}


def _field(flag, commands, parse, default=None, help=None, metavar=None, repeat=False):
    """A RunConfig field with its flag, the commands that take it and its parser.

    A ``repeat`` flag may be given again, and FLAG-grid adds a START:STOP:STEP grid.
    """
    return field(default=default, metadata={
        "flag": flag, "commands": commands, "parse": parse, "help": help,
        "metavar": metavar or flag[2:].upper().replace("-", "_"), "repeat": repeat})


@dataclass
class RunConfig:
    """Fully resolved, serializable description of one CLI run.

    The one list of config fields: the flags, the reading of a config file
    and every check on a value are built from these declarations.
    """

    command: str
    c_values: tuple = _field("--c", _ALL, _positives, (), repeat=True,
                             help="Slepian frequency; repeat for several values")
    T: float = _field("--T", _ALL, _positive, 1.0, help="window half-length")
    n_max: int | None = _field("--n-max", tuple(_N_MAX_LEAST), _count)
    tau_values: tuple = _field("--tau", _SUPERRES, _positives, (), repeat=True,
                               help="pulse separation; repeat for several values")
    tau0: float = _field("--tau0", _SUPERRES, _number, 0.0, help="centroid")
    nu: float = _field("--nu", _SUPERRES, _fraction, 0.5, help="relative intensity")
    sigma: float | None = _field("--sigma", _SUPERRES, _positive,
                                 help="pulse width (default T / sqrt(c))")
    design: tuple = _field("--design", _SUPERRES, _four_numbers,
                           (0.7, math.pi / 3.0, 0.7, math.pi / 3.0 - 1.2),
                           metavar="R1,PHI1,R2,PHI2")
    # the third element mixes phi_0 and phi_1, so that the centroid and the
    # intensity ratio stay identifiable at the symmetric point
    design_row2: tuple = _field("--design-row2", _SUPERRES, _four_numbers,
                                (0.55, 0.55, 0.0, 0.0), metavar="C20,C21,C22,C23")
    regime: str = _field("--regime", _SUPERRES, _choice(*REGIMES), "limited",
                         metavar="{" + ",".join(REGIMES) + "}")
    t_grid: tuple = _field("--t-grid", ("hg-compare",), grid_triple, (-3.0, 3.0, 0.01),
                           metavar="START:STOP:STEP")
    out: str | None = _field("--out", _ALL, _text, help="data file (default COMMAND.FORMAT)")
    format: str = _field("--format", _ALL, _choice("csv", "json"), "csv", metavar="{csv,json}")


def _fields_of(command: str) -> list:
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


def _checked(flag: str, parse, value):
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(f"{flag} {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prolate",
        description="Concentration spectra, mode comparisons and "
                    "band/time-limited superresolution sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, _, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for f in _fields_of(command):
            meta = f.metadata
            p.add_argument(meta["flag"], dest=f.name, help=meta["help"],
                           metavar=meta["metavar"],
                           action="append" if meta["repeat"] else "store")
            if meta["repeat"]:
                p.add_argument(meta["flag"] + "-grid", dest=f.name + "_grid",
                               metavar="START:STOP:STEP")
        p.add_argument("--config", help="JSON config file or a previously emitted manifest; "
                                        "flags override file values")
    return parser


def _read_config(path) -> dict:
    doc = pio.load_json(path)
    if isinstance(doc, dict):
        doc = doc.get("config", doc)
    if not isinstance(doc, dict):
        raise ConfigError(f"--config {path!r} is not a key-value document")
    # manifests record the retired quad_order, as null unless it was set
    if doc.pop("quad_order", None) is not None:
        raise ConfigError(f"--config {path!r} sets the retired 'quad_order'; use --n-max")
    unknown = sorted(set(doc) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"--config {path!r} has unknown keys {', '.join(map(repr, unknown))}")
    return doc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags first, then the config file, then the field's default.

    A null file value counts as not given.  ``command``, and the fields of
    other commands, are ignored in a file, so that every manifest replays.
    """
    file_cfg = _read_config(args.config) if args.config else {}
    values = {}
    for f in _fields_of(args.command):
        flag = f.metadata["flag"]
        given = getattr(args, f.name)
        if f.metadata["repeat"] and getattr(args, f.name + "_grid") is not None:
            grid = _checked(flag + "-grid", parse_grid, getattr(args, f.name + "_grid"))
            given = [*(given or ()), *grid]
        if given is None:
            given = file_cfg.get(f.name)
        if given is not None:
            values[f.name] = _checked(flag, f.metadata["parse"], given)
    cfg = RunConfig(command=args.command, **values)
    cfg.c_values = cfg.c_values or _COMMANDS[cfg.command][1]
    if not cfg.c_values:
        raise ConfigError("no c values given (use --c or --c-grid)")
    if cfg.n_max is not None and cfg.n_max < _N_MAX_LEAST[cfg.command]:
        raise ConfigError(f"--n-max must be >= {_N_MAX_LEAST[cfg.command]} for "
                          f"{cfg.command}, got {cfg.n_max}")
    c_top = max(cfg.c_values)  # the basis, and its size, grow with c
    size = _legendre_shape(c_top, _n_max_at(cfg, c_top))[1]
    if size > MAX_LEGENDRE_SIZE:
        given = f"--c {c_top!r}" + ("" if cfg.n_max is None else f" with --n-max {cfg.n_max}")
        raise ConfigError(f"{given} needs {size} Legendre terms, over {MAX_LEGENDRE_SIZE}")
    if cfg.out is None:
        cfg.out = f"{cfg.command.replace('-', '_')}.{cfg.format}"
    return cfg


def _n_max_at(cfg: RunConfig, c: float):
    """The n_max the command builds its basis with at c; None is the automatic rule."""
    if cfg.n_max is not None or cfg.command == "superres":
        return cfg.n_max
    return {"spectrum": plunge_index(c) + 6, "hg-compare": max(4, plunge_index(c) + 2),
            "lambda0": 0}[cfg.command]


def _spectrum_rows(cfg: RunConfig, c: float, basis) -> list:
    return [(c, n, float(lam)) for n, lam in enumerate(basis.lambdas)]


def _hg_compare_rows(cfg: RunConfig, c: float, basis) -> list:
    t = np.array(grid_values(*cfg.t_grid))
    psi2, hg2 = eval_psi(basis, 2, t), hg_eval(2, c, t / cfg.T) / math.sqrt(cfg.T)
    sup = float(np.max(np.abs(psi2 - hg2)))
    return [(c, float(tv), float(pv), float(hv), sup) for tv, pv, hv in zip(t, psi2, hg2)]


def _lambda0_rows(cfg: RunConfig, c: float, basis) -> list:
    return [(c, float(basis.lambdas[0]))]


def _superres_rows(cfg: RunConfig, c: float, basis):
    design = design_from_sphere(*cfg.design, row2=cfg.design_row2)
    sigma = cfg.sigma if cfg.sigma is not None else cfg.T * default_psf_sigma(c)
    taus = cfg.tau_values or (sigma,)
    model0 = TwoPulseModel(GaussianPsf(sigma), tau=taus[0], tau0=cfg.tau0, nu=cfg.nu)
    dbasis = gram_schmidt(gamma_modes(model0, basis))
    povm = optimal_povm(design, dbasis)
    tl_design = time_limited_design(design, dbasis, basis)
    bound_phi2, bound_lambda0 = efficiency_bounds(dbasis, basis)
    a_value = efficiency_factor(tl_design if cfg.regime == "limited" else design)
    # every tau's Fisher matrix before any CRB, so a failing tau exits before a nan line
    fishers = [superres_fisher(replace(model0, tau=tau), povm, basis, cfg.regime)
               for tau in taus]
    for tau, fisher in zip(taus, fishers):
        try:
            bounds = crb(fisher)
        except SingularFisherError as exc:
            print(f"c={c!r} tau={tau!r}: CRBs written as nan: {exc}", file=sys.stderr)
            bounds = np.full(3, math.nan)
        yield (c, tau, cfg.tau0, cfg.nu, cfg.regime, a_value, bound_phi2, bound_lambda0,
               float(fisher.matrix[0, 0]), float(bounds[0]), float(bounds[1]), float(bounds[2]))


_COMMANDS = {  # rows at one c, default c values, header, help
    "spectrum": (_spectrum_rows, (2.5 * math.pi, 5.0 * math.pi, 10.0 * math.pi),
                 ("c", "n", "lambda"), "eigenvalue table (c, n, lambda_n)"),
    "hg-compare": (_hg_compare_rows, (1.0, 5.0, 10.0, 20.0),
                   ("c", "t", "psi2", "psi2_hg", "sup_distance"),
                   "second prolate mode against the second Hermite-Gauss mode"),
    "lambda0": (_lambda0_rows, grid_values(0.1, 10.0, 0.1), ("c", "lambda0"),
                "largest eigenvalue as a function of c"),
    "superres": (_superres_rows, (),
                 ("c", "tau", "tau0", "nu", "regime", "A", "bound_phi2",
                  "bound_lambda0", "F_tautau", "crb_tau", "crb_tau0", "crb_nu"),
                 "efficiency factors, bounds, Fisher/CRB sweep"),
}


def run(cfg: RunConfig):
    """The command's header and rows: its rows at each c, from one basis per c."""
    rows_at, _, header, _ = _COMMANDS[cfg.command]
    rows = []
    for c in cfg.c_values:
        basis = build_basis(SlepianParams(c=c, T=cfg.T), n_max=_n_max_at(cfg, c))
        rows.extend(rows_at(cfg, c, basis))
    return header, rows


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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError) as exc:  # a ConfigError, or an unreadable config file
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows = run(cfg)
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
