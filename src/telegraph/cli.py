"""Batch command-line front end.

Subcommands: ``kernel`` (kernel tables), ``solve`` (initial-value problems),
``delta`` (point-mass mixed measures), ``validate`` (oracle suites).  Output
is CSV or JSON written once at the end; identical configurations (including
the seed) produce byte-identical files.  Exit codes: 0 success, 1 validation
failure, 2 usage or configuration error.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, UsageError
from .fields import SampledField, SpaceGrid, from_function, zeros
from .kernel import MediumParams, fundamental_solution, time_derivative_regular
from .oracles import (DuhamelConfig, ValidationReport, binned_tv_distance,
                      duhamel_residual, expected_never_flip, fd_config_for,
                      fd_solve, rel_l2_error, simulate_walk, walk_config_for)
from .semigroup import StatePair, evolve
from .solver import DELTA_KINDS, point_source_solution, solve


@dataclass
class RunConfig:
    """Effective configuration of one CLI invocation (echoed into JSON)."""

    command: str
    values: dict = field(default_factory=dict)

    def medium(self) -> MediumParams:
        return MediumParams(k=self.values["k"], c=self.values["c"])

    def grid(self) -> SpaceGrid:
        xmin = self.values["xmin"]
        xmax = self.values["xmax"]
        n = self.values["n"]
        if xmax <= xmin:
            raise UsageError(f"xmax ({xmax}) must exceed xmin ({xmin})")
        if n < 2:
            raise UsageError(f"grid needs at least 2 points, got n = {n}")
        return SpaceGrid(x0=xmin, dx=(xmax - xmin) / (n - 1), n=n)


def _config_echo(cfg: RunConfig) -> dict:
    return {key: val for key, val in cfg.values.items()
            if key not in ("out", "config") and val is not None}


def _gaussian_data(cfg: RunConfig, grid: SpaceGrid) -> tuple[SampledField, SampledField]:
    v = cfg.values
    for name in ("f_width", "g_width") if v["g_amp"] != 0.0 else ("f_width",):
        if not (math.isfinite(v[name]) and v[name] != 0.0):
            raise UsageError(f"--{name.replace('_', '-')} must be finite and nonzero")

    def bump(amp: float, center: float, width: float) -> SampledField:
        with np.errstate(over="ignore"):  # a tiny width gives exp(-inf) = 0
            return from_function(grid, lambda x: amp * np.exp(-((x - center) / width) ** 2))

    f = bump(1.0, v["f_center"], v["f_width"])
    if v["g_amp"] == 0.0:
        return f, zeros(grid)
    return f, bump(v["g_amp"], v["g_center"], v["g_width"])


def _file_data(path: Optional[str]) -> tuple[SampledField, SampledField]:
    if not path:
        raise UsageError("--init file requires --file PATH")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise UsageError(f"cannot read data file {path}: {exc}") from exc
    rows = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        parts = [p.strip() for p in ln.split(",")]
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if not rows:  # tolerate one header row
                continue
            raise UsageError(f"{path}: non-numeric row {ln!r}")
    if len(rows) < 2:
        raise UsageError(f"{path}: need at least two data rows (x,f,g)")
    if any(len(r) != 3 for r in rows):
        raise UsageError(f"{path}: every row must have exactly three columns x,f,g")
    data = np.asarray(rows, dtype=float)
    x = data[:, 0]
    dx = x[1] - x[0]
    if dx <= 0 or np.max(np.abs(np.diff(x) - dx)) > 1e-9 * max(1.0, abs(dx)):
        raise UsageError(f"{path}: x column must be uniformly increasing")
    grid = SpaceGrid(x0=float(x[0]), dx=float(dx), n=len(x))
    return SampledField(grid, data[:, 1]), SampledField(grid, data[:, 2])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_kernel(cfg: RunConfig) -> tuple[dict, bool]:
    medium = cfg.medium()
    grid = cfg.grid()
    t = cfg.values["t"]
    ct = medium.c * t
    if not math.isfinite(ct):  # the atoms ride the cone edges -+ct
        raise DomainError(f"cone radius c|t| = {medium.c} * {abs(t)} exceeds float64")
    x = grid.points()
    psi_vals = np.atleast_1d(fundamental_solution(x, t, medium))
    dt_vals = np.atleast_1d(time_derivative_regular(x, t, medium))
    payload = {
        "command": "kernel",
        "config": _config_echo(cfg),
        # the time derivative's two Dirac atoms ride the cone edges
        "atoms": [{"x": -ct, "w": 0.5}, {"x": ct, "w": 0.5}],
        "table": {
            "columns": ["x", "kernel_value", "kernel_dt_regular"],
            "rows": [[float(a), float(b), float(d)]
                     for a, b, d in zip(x, psi_vals, dt_vals)],
        },
    }
    return payload, True


def cmd_solve(cfg: RunConfig) -> tuple[dict, bool]:
    medium = cfg.medium()
    if cfg.values["init"] == "file":
        f, g = _file_data(cfg.values["file"])
    else:
        f, g = _gaussian_data(cfg, cfg.grid())
    u = solve(f, g, cfg.values["t"], medium)
    payload = {
        "command": "solve",
        "config": _config_echo(cfg),
        "table": {
            "columns": ["x", "solution"],
            "rows": [[float(a), float(b)] for a, b in zip(u.x, u.values)],
        },
    }
    return payload, True


def cmd_delta(cfg: RunConfig) -> tuple[dict, bool]:
    medium = cfg.medium()
    t = cfg.values["t"]
    if not t > 0:  # before the default grid, which is derived from ct
        raise DomainError(f"point-source solutions need t > 0, got {t}")
    ct = medium.c * t
    v = dict(cfg.values)
    if v["xmin"] is None:
        v["xmin"] = -1.1 * ct
    if v["xmax"] is None:
        v["xmax"] = 1.1 * ct
    grid_cfg = RunConfig(cfg.command, v)
    measure = point_source_solution(v["kind"], t, medium, grid_cfg.grid())
    breakdown = measure.mass_breakdown()
    dens = measure.density
    payload = {
        "command": "delta",
        "config": {**_config_echo(cfg), "xmin": v["xmin"], "xmax": v["xmax"]},
        "atoms": [{"x": p, "w": w} for p, w in measure.atoms],
        "density": [{"x": float(a), "v": float(b)}
                    for a, b in zip(dens.x, dens.values)],
        "mass": {"atoms": breakdown.atoms, "density": breakdown.density,
                 "total": breakdown.total},
    }
    return payload, True


def _suite_data(half: float, dx: float) -> tuple[SampledField, SampledField]:
    """Data f = e^{-x^2}, g = 0 on [-half, half] at spacing dx, the half-width
    rounded to whole cells."""
    if not (math.isfinite(dx) and dx > 0 and math.isfinite(half)):
        raise UsageError(f"suite grid needs a positive finite dx and a finite "
                         f"half-width, got dx = {dx}, half-width = {half}")
    grid = SpaceGrid(-half, dx, int(round(2 * half / dx)) + 1)
    return from_function(grid, lambda x: np.exp(-x * x)), zeros(grid)


def _suite_fd(cfg: RunConfig) -> list[ValidationReport]:
    medium = cfg.medium()
    t = cfg.values["t"]
    f, g = _suite_data(8.0, cfg.values["dx"])
    reference = solve(f, g, t, medium)
    approx = fd_solve(f, g, t, medium, fd_config_for(t, f.grid, medium))
    tol = cfg.values["tol"] if cfg.values["tol"] is not None else 1e-3
    return [ValidationReport("fd_vs_convolution", "rel_L2",
                             rel_l2_error(approx, reference), tol)]


def _suite_walk(cfg: RunConfig) -> list[ValidationReport]:
    medium = cfg.medium()
    t = cfg.values["t"]
    walk_cfg = walk_config_for(medium, cfg.values["dt_walk"], t,
                               cfg.values["n_walkers"], cfg.values["seed"])
    estimate = simulate_walk(walk_cfg)
    ct = medium.c * t
    ref_grid = SpaceGrid(-1.25 * ct, 2.5 * ct / 4096, 4097)
    reference = point_source_solution("delta_position", t, medium, ref_grid)
    tol = cfg.values["tol"] if cfg.values["tol"] is not None else 0.02
    reports = [ValidationReport("walk_vs_point_source", "TV_distance",
                                binned_tv_distance(estimate, reference), tol)]
    frac = sum(w for _, w in estimate.atoms)
    expect = expected_never_flip(walk_cfg)
    sigma = math.sqrt(max(expect * (1 - expect), 1e-300) / walk_cfg.n_walkers)
    reports.append(ValidationReport("never_flipped_fraction", "atom_error",
                                    abs(frac - expect), 3 * sigma))
    return reports


def _suite_duhamel(cfg: RunConfig) -> list[ValidationReport]:
    medium = cfg.medium()
    t = cfg.values["t"]
    f, g = _suite_data(max(6.0, 2 * medium.c * t + 4.0), max(cfg.values["dx"], 1.0 / 256))
    tol = cfg.values["tol"] if cfg.values["tol"] is not None else 1e-4
    if medium.k == 0.0:  # the free-wave residual is 0 by construction: check d'Alembert
        exact = sum(np.exp(-(f.x + side * medium.c * t) ** 2) for side in (-1, 1)) / 2
        error = float(np.max(np.abs(solve(f, g, t, medium).values - exact)))
        return [ValidationReport("dalembert_closed_form", "max_abs", error, tol)]
    residual = duhamel_residual(f, g, t, medium,
                                DuhamelConfig(n_slabs=cfg.values["slabs"]))
    return [ValidationReport("duhamel_fixed_point", "max_abs", residual, tol)]


def _suite_semigroup(cfg: RunConfig) -> list[ValidationReport]:
    medium = cfg.medium()
    t = cfg.values["t"]
    half = 8.0
    state = StatePair(*_suite_data(half, max(cfg.values["dx"], 1.0 / 256)))
    whole = evolve(2 * t, state, medium)
    composed = evolve(t, evolve(t, state, medium), medium)
    window = (-half + 2 * medium.c * t, half - 2 * medium.c * t)
    tol = cfg.values["tol"] if cfg.values["tol"] is not None else 1e-5
    return [
        ValidationReport("composition_u", "rel_L2",
                         rel_l2_error(composed.u, whole.u, window), tol),
        ValidationReport("composition_ut", "rel_L2",
                         rel_l2_error(composed.ut, whole.ut, window), tol),
    ]


#: validate suites in the order ``all`` runs them
_SUITES = {"fd": _suite_fd, "walk": _suite_walk,
           "duhamel": _suite_duhamel, "semigroup": _suite_semigroup}


def cmd_validate(cfg: RunConfig) -> tuple[dict, bool]:
    suite = cfg.values["suite"]
    names = list(_SUITES) if suite == "all" else [suite]
    reports: list[ValidationReport] = []
    for name in names:
        reports.extend(_SUITES[name](cfg))
    payload = {
        "command": "validate",
        "config": _config_echo(cfg),
        "reports": [{"name": r.name, "metric": r.metric, "value": r.value,
                     "tolerance": r.tolerance, "pass": r.passed}
                    for r in reports],
    }
    return payload, all(r.passed for r in reports)


# option table: dest -> (type or tuple of choices, default); a None default
# means "computed later"
_COMMON = {
    "k": (float, 1.0),
    "c": (float, 1.0),
    "t": (float, 1.0),
    "out": (str, None),
    "config": (str, None),
}
_FORMAT = {"format": (("csv", "json"), "csv")}  # validate always writes JSON
_OPTIONS = {
    "kernel": {**_COMMON, **_FORMAT, "xmin": (float, -2.0), "xmax": (float, 2.0),
               "n": (int, 401)},
    "solve": {**_COMMON, **_FORMAT, "xmin": (float, -8.0), "xmax": (float, 8.0), "n": (int, 4097),
              "init": (("gaussian", "file"), "gaussian"), "file": (str, None),
              "f_center": (float, 0.0), "f_width": (float, 1.0),
              "g_amp": (float, 0.0), "g_center": (float, 0.0), "g_width": (float, 1.0)},
    "delta": {**_COMMON, **_FORMAT, "kind": (DELTA_KINDS, "delta_position"),
              "xmin": (float, None), "xmax": (float, None), "n": (int, 2049)},
    "validate": {**_COMMON, "suite": ((*_SUITES, "all"), "all"), "dx": (float, 1.0 / 512),
                 "n_walkers": (int, 1_000_000), "dt_walk": (float, 1e-3), "slabs": (int, 32),
                 "tol": (float, None), "seed": (int, 7)},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telegraph",
        description="Damped wave equation: kernels, solvers, point-mass "
                    "measures and validation oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "kernel": "tabulate the light-cone kernel and its time derivative",
        "solve": "solve an initial-value problem on a grid",
        "delta": "point-mass initial data as an atoms+density measure",
        "validate": "run oracle suites and report pass/fail",
    }
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, help=helps[command])
        for dest, (kind, _default) in options.items():
            rule = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument("--" + dest.replace("_", "-"), default=None, **rule)
    return parser


def _read_config_file(path: str) -> dict:
    """Simple key-value text: `name = value`, '#' comments, blank lines ok."""
    table = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'name = value', got {raw.strip()!r}")
                name, value = line.split("=", 1)
                table[name.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return table


def _config_value(dest: str, kind, text: str):
    """A config-file value, checked against the option's type or choices."""
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"config value for {dest!r} must be one of "
                             f"{', '.join(kind)}, got {text!r}")
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"config value for {dest!r} is not a valid "
                         f"{kind.__name__}: {text!r}") from exc


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags override config-file entries override built-in defaults."""
    command = args.command
    options = _OPTIONS[command]
    file_table = {}
    if getattr(args, "config", None):
        file_table = _read_config_file(args.config)
        for name in file_table:
            if name not in options:
                raise UsageError(f"{args.config}: {name!r} is not an option of {command}")
    values = {}
    for dest, (kind, default) in options.items():
        given = getattr(args, dest)
        if given is not None:
            values[dest] = given
        elif dest in file_table:
            values[dest] = _config_value(dest, kind, file_table[dest])
        else:
            values[dest] = default
    return RunConfig(command=command, values=values)


def _csv(payload: dict) -> str:
    """A kernel, solve or delta document as CSV: '# atom,' and '# mass,' lines,
    then the table (delta's density has columns x,density).  Numbers carry 17
    significant digits: round-trippable doubles, '.' decimal point."""
    lines = [f"# atom,{a['x']:.17g},{a['w']:.17g}" for a in payload.get("atoms", ())]
    lines += [f"# mass,{part},{m:.17g}" for part, m in payload.get("mass", {}).items()]
    table = payload.get("table") or {
        "columns": ["x", "density"], "rows": [(p["x"], p["v"]) for p in payload["density"]]}
    row = ",".join(["{:.17g}"] * len(table["columns"])).format
    lines.append(",".join(table["columns"]))
    lines += [row(*r) for r in table["rows"]]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        runner = {"kernel": cmd_kernel, "solve": cmd_solve,
                  "delta": cmd_delta, "validate": cmd_validate}[cfg.command]
        payload, ok = runner(cfg)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # validate always emits JSON (machine-readable reports)
    if cfg.command == "validate" or cfg.values.get("format") == "json":
        try:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:  # nan/inf have no JSON spelling
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        text = _csv(payload)
    out_path = cfg.values.get("out")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (head, etc.) closed the pipe; not our error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return 0 if ok else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
