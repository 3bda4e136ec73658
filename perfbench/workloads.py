"""The benchmark's four workloads: inputs from a seed, operations, checks.

Each workload has three parts:

* ``spec(seed)`` draws every input parameter from ``random.Random(seed)``
  into a JSON-able dict.  The seed moves amplitudes and centres of the
  data, and t, c or k where the cost does not depend on them (point laws
  at fixed k*t, CLI commands); grid sizes, widths, solve times and the
  operations themselves are fixed, so every seed costs the same.
* ``build(spec)`` turns the dict into program objects with telegraph's own
  constructors; its time is part of ``setup_s``.
* Each ``Op`` has ``call`` (the timed operation) and ``check`` (compares
  the output with ``references``, after the timed loop).

Operations look functions up on their module at call time
(``tg.solve(...)``, never a bound reference), so the traced run sees the
wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import references as ref
import telegraph as tg

ROOT = Path(__file__).resolve().parent.parent

#: Every library grid spans [-HALF, HALF]; data stay within |x| <= 1.5 + 8 widths.
HALF = 8.0

#: Gaussian widths the operations cycle through.
WIDTHS = (0.6, 0.7, 0.8, 0.9)

#: Timeout of one CLI subprocess, well inside the benchmark's own limit.
CLI_TIMEOUT_S = 150.0


class OpFailed(Exception):
    """An operation ended without a result (a CLI run that exited non-zero)."""


#: What counts as a failed operation rather than a crash of the benchmark.
FAILURES = (tg.DomainError, tg.UsageError, OpFailed)


@dataclass
class Check:
    """One comparison: passes iff error <= tol.

    ``accuracy`` checks are relative errors against an independent
    reference and enter accuracy_digits; property checks (exit codes,
    schema, statistical bounds) do not.
    """

    label: str
    error: float
    tol: float
    accuracy: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.error <= self.tol)


def prop(label: str, ok: bool) -> Check:
    return Check(label, 0.0 if ok else 1.0, 0.0, accuracy=False)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    call_inprocess: Optional[Callable[[], object]] = None


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _sign(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _gauss(rng: random.Random, width: float, amp=(0.5, 1.5)):
    """(amplitude, centre, width) of amp * exp(-((x - centre) / width)^2).

    Widths are part of each operation, not drawn: interpolation error goes
    like width^-4, so a drawn width would make accuracy_digits follow the
    seed.  The seed moves amplitudes and centres.
    """
    return (_uniform(rng, *amp), _uniform(rng, -1.5, 1.5), width)


def _grid(n: int) -> "tg.SpaceGrid":
    return tg.SpaceGrid(-HALF, 2.0 * HALF / (n - 1), n)


def _field(grid, data):
    if data is None:
        return tg.zeros(grid)
    return tg.from_function(grid, lambda x: ref.gaussian(x, data))


def _u_reference(x, t, k, c, f, g):
    if k == 0.0:
        return ref.dalembert(x, t, c, f, g)
    return ref.fourier_field(x, t, k, c, f, g, "u")


# ---------------------------------------------------------------------------
# field-solve
# ---------------------------------------------------------------------------

SOLVE_TOL = 1e-6
CONVOLVE_TOL = 1e-6


def field_solve_spec(seed: int) -> dict:
    rng = random.Random(seed)
    solves = []

    def add(n, t, k, with_g, ee=False):
        i = len(solves)
        solves.append({"n": n, "t": t, "k": k, "f": _gauss(rng, WIDTHS[i % 4]),
                       "g": _gauss(rng, WIDTHS[(i + 2) % 4], (-1.0, 1.0)) if with_g else None,
                       "ee": ee})

    # Short cone windows on one grid size: the majority by count and of one
    # cost, so op_p50_ms tracks per-call overhead.  Signs of t are fixed:
    # backward k = 200 solves lose up to 1.7e-5 to their e^{k|t|/2}
    # amplification of quadrature error, depending on the data, so they run
    # forward only.
    for tau in (0.01, 0.02, 0.04):
        for k in (0.0, 1.0, 8.0, 200.0):
            add(2049, tau, k, False)
            add(2049, tau if k == 200.0 else -tau, k, True)
    add(1025, 0.02, 1.0, True, ee=True)
    add(2049, -0.02, 8.0, False, ee=True)
    # wide windows and large n: most of batch_s
    add(16385, 0.25, 1.0, True)
    add(8193, -1.0, 1.0, False)
    add(4097, 4.0, 8.0, True)
    add(2049, -4.0, 0.0, True)
    add(1025, 4.0, 200.0, False)
    add(4097, 1.0, 0.0, False, ee=True)
    add(2049, -1.0, 1.0, True, ee=True)
    # k*t = 3000: fails today (DomainError after Bessel overflow)
    add(1025, 1.0, 3000.0, True)
    convolves = []
    for k in (1.0, 8.0):
        measure = {"density": _gauss(rng, 0.75),
                   "atoms": [(_uniform(rng, -2.0, 2.0), _uniform(rng, 0.2, 1.0))
                             for _ in range(2)]}
        for which in ("kernel", "kernel_dt"):
            convolves.append({"n": 2049, "t": 0.5, "k": k, "which": which, **measure})
    return {"solves": solves, "convolves": convolves}


def _solve_op(s: dict) -> Op:
    grid = _grid(s["n"])
    f, g = _field(grid, s["f"]), _field(grid, s["g"])
    medium = tg.MediumParams(k=s["k"], c=1.0)
    t, ee = s["t"], s["ee"]

    def check(out):
        field = out[0] if ee else out
        x = grid.points()
        checks = [Check(f"solve n={s['n']} t={t:+.2f} k={s['k']:g}",
                        ref.rel_error(field.values, _u_reference(x, t, s["k"], 1.0, s["f"], s["g"])),
                        SOLVE_TOL)]
        if ee:
            checks.append(prop("error estimate finite and >= 0",
                               math.isfinite(out[1]) and out[1] >= 0.0))
        return checks

    return Op(f"solve n={s['n']} t={t:+.2f} k={s['k']:g}",
              lambda: tg.solve(f, g, t, medium, error_estimate=ee), check)


def _convolve_op(s: dict) -> Op:
    grid = _grid(s["n"])
    measure = tg.MixedMeasure(atoms=tuple(tuple(a) for a in s["atoms"]),
                              density=_field(grid, s["density"]),
                              support=(grid.x0, grid.x_end))
    medium = tg.MediumParams(k=s["k"], c=1.0)
    t, which, k = s["t"], s["which"], s["k"]

    def check(out):
        x = out.density.grid.points()
        expect = ref.fourier_field(x, t, k, 1.0, None, s["density"], which)
        away_from_edges = np.ones(x.shape, dtype=bool)
        for pos, w in s["atoms"]:
            psi, reg = ref.kernel_values(x - pos, t, k, 1.0)
            expect += w * (psi if which == "kernel" else reg)
            away_from_edges &= np.abs(np.abs(x - pos) - t) > 1e-9 * t
        atoms = sorted(out.atoms)
        expect_atoms = sorted([] if which == "kernel" else
                              [(p + d, 0.5 * w) for p, w in s["atoms"] for d in (-t, t)])
        return [Check(f"convolve_measure {which} k={k:g}",
                      ref.rel_error(out.density.values[away_from_edges], expect[away_from_edges]),
                      CONVOLVE_TOL),
                Check(f"convolve_measure {which} atoms",
                      max([abs(a[0] - b[0]) + abs(a[1] - b[1])
                           for a, b in zip(atoms, expect_atoms)], default=0.0)
                      if len(atoms) == len(expect_atoms) else math.inf, 1e-12)]

    return Op(f"convolve_measure {which} k={k:g}",
              lambda: tg.convolve_measure(measure, t, medium, which), check)


def field_solve_build(spec: dict) -> list:
    return ([_solve_op(s) for s in spec["solves"]]
            + [_convolve_op(s) for s in spec["convolves"]])


# ---------------------------------------------------------------------------
# phase-space
# ---------------------------------------------------------------------------

PHASE_N = 1025
PHASE_TOL = 1e-4


def phase_space_spec(seed: int) -> dict:
    rng = random.Random(seed)
    return {"cases": [{"k": k, "f": _gauss(rng, 0.7), "g": _gauss(rng, 0.8, (-1.0, 1.0))}
                      for k in (0.5, 1.0, 4.0, 20.0)]}


def _phase_ops(case: dict) -> list:
    grid = _grid(PHASE_N)
    x = grid.points()
    f, g = _field(grid, case["f"]), _field(grid, case["g"])
    state = tg.StatePair(f, g)
    k = case["k"]
    medium = tg.MediumParams(k=k, c=1.0)
    coarse, fine = tg.DuhamelConfig(n_slabs=8), tg.DuhamelConfig(n_slabs=16)
    tag = f"k={k:g}"

    def field_checks(label, u, ut, t):
        return [Check(f"{label} u {tag}",
                      ref.rel_error(u.values, _u_reference(x, t, k, 1.0, case["f"], case["g"])),
                      PHASE_TOL),
                Check(f"{label} u_t {tag}",
                      ref.rel_error(ut.values, ref.fourier_field(x, t, k, 1.0, case["f"],
                                                                 case["g"], "ut")),
                      PHASE_TOL)]

    def norm_checks(rows):
        checks = []
        for row in rows:
            exact = ref.fourier_norms(row.t, k, 1.0, case["f"], case["g"], grid.dx)
            got = (row.u_l2, row.ut_l2, row.ux_l2)
            checks.append(Check(f"norm_report t={row.t:g} {tag}",
                                max(abs(a - b) / b for a, b in zip(got, exact)), PHASE_TOL))
            checks.append(prop("norm_report envelope",
                               row.envelope == math.exp(-0.5 * k * row.t)))
        return checks

    def duhamel():
        cache = {}
        return (tg.duhamel_residual(f, g, 0.25, medium, coarse, cache),
                tg.duhamel_residual(f, g, 0.25, medium, fine, cache))

    return [
        Op(f"evolve one hop {tag}", lambda: tg.evolve(0.5, state, medium),
           lambda out: field_checks("evolve", out.u, out.ut, 0.5)),
        Op(f"evolve two hops {tag}",
           lambda: tg.evolve(0.25, tg.evolve(0.25, state, medium), medium),
           lambda out: field_checks("evolve composed", out.u, out.ut, 0.5)),
        Op(f"norm_report {tag}", lambda: tg.norm_report(state, medium, (0.0, 0.25, 0.5)),
           norm_checks),
        Op(f"velocity {tag}", lambda: tg.velocity(f, g, 0.5, medium, error_estimate=True),
           lambda out: [Check(f"velocity u_t {tag}",
                              ref.rel_error(out[0].values,
                                            ref.fourier_field(x, 0.5, k, 1.0, case["f"],
                                                              case["g"], "ut")),
                              PHASE_TOL),
                        prop("velocity error estimate finite and >= 0",
                             math.isfinite(out[1]) and out[1] >= 0.0)]),
        # Solves that agree with each other let the nested Simpson residual
        # fall ~16x per halving of the slab width; an inconsistent solve
        # would stall it at its own error.
        Op(f"duhamel_residual {tag}", duhamel,
           lambda out: [prop(f"duhamel residual falls at Simpson's order {tag}",
                             0.0 < out[1] <= out[0] / 8.0)]),
    ]


def phase_space_build(spec: dict) -> list:
    return [op for case in spec["cases"] for op in _phase_ops(case)]


# ---------------------------------------------------------------------------
# point-law
# ---------------------------------------------------------------------------

KINDS = ("delta_position", "delta_velocity", "financial")
LAW_N = 4097
TABLE_N = 8193
LAW_TOL = 1e-10
TABLE_TOL = 1e-10


def point_law_spec(seed: int) -> dict:
    rng = random.Random(seed)

    def medium(kt):
        t = _uniform(rng, 0.5, 2.0)
        return {"k": kt / t, "t": t, "c": _uniform(rng, 0.5, 2.0)}

    laws = [{"kind": kind, **medium(kt)}
            for kind in KINDS for kt in (0.1, 1.0, 10.0, 100.0, 1000.0, 1400.0)]
    # k*t = 3000: fails today (DomainError after Bessel overflow)
    laws.append({"kind": "financial", **medium(3000.0)})
    tables = []
    for kt in (1.0, 100.0, 1000.0, 1400.0):
        m = medium(kt)
        m["t"] *= _sign(rng)
        tables.append(m)
    return {"laws": laws, "tables": tables}


def _check_law(kind, t, k, c, law, masses, prefix="") -> list:
    """Atoms, density samples and masses of a law against the closed forms."""
    ct = c * t
    label = f"{prefix}{kind} kt={k * t:.3g}"
    x = np.asarray(law[0], dtype=float)
    values = np.asarray(law[1], dtype=float)
    inside = ct * ct - x * x > 1e-9 * ct * ct
    outside = np.abs(x) > ct * (1.0 + 1e-9)
    expect_atoms = ref.point_law_atoms(kind, t, k, c)
    atoms = sorted(law[2])
    atom_err = (max([abs(p - q) / ct + (abs(w - v) / v if v else abs(w))
                     for (p, w), (q, v) in zip(atoms, expect_atoms)], default=0.0)
                if len(atoms) == len(expect_atoms) else math.inf)
    exact = ref.point_law_masses(kind, t, k)
    return [
        Check(f"{label} density",
              ref.rel_error(values[inside], ref.point_law_density(kind, x[inside], t, k, c)),
              LAW_TOL),
        prop(f"{label} density vanishes outside the cone", bool(np.all(values[outside] == 0.0))),
        Check(f"{label} atoms", atom_err, LAW_TOL),
        Check(f"{label} masses", max(abs(a - b) / exact[2] for a, b in zip(masses, exact)),
              LAW_TOL),
    ]


def _law_op(s: dict) -> Op:
    kind, t, k, c = s["kind"], s["t"], s["k"], s["c"]
    ct = c * t
    grid = tg.SpaceGrid(-1.1 * ct, 2.2 * ct / (LAW_N - 1), LAW_N)
    medium = tg.MediumParams(k=k, c=c)

    def call():
        law = tg.point_source_solution(kind, t, medium, grid)
        return law, law.mass_breakdown()

    def check(out):
        law, mb = out
        return _check_law(kind, t, k, c, (law.density.x, law.density.values, law.atoms),
                          (mb.atoms, mb.density, mb.total))

    return Op(f"{kind} kt={k * t:.3g}", call, check)


def _table_op(s: dict) -> Op:
    t, k, c = s["t"], s["k"], s["c"]
    ct = c * abs(t)
    x = tg.SpaceGrid(-1.2 * ct, 2.4 * ct / (TABLE_N - 1), TABLE_N).points()
    medium = tg.MediumParams(k=k, c=c)

    def check(out):
        return _check_table(x, out[0], out[1], t, k, c, f"kernel table kt={k * abs(t):.3g}")

    return Op(f"kernel table kt={k * abs(t):.3g}",
              lambda: (tg.fundamental_solution(x, t, medium),
                       tg.time_derivative_regular(x, t, medium)), check)


def _check_table(x, psi, reg, t, k, c, label) -> list:
    """Pointwise relative error off the cone edge, where the kernel jumps."""
    ct = c * abs(t)
    inside = np.abs(x) < ct * (1.0 - 1e-9)
    outside = np.abs(x) > ct * (1.0 + 1e-9)
    psi_ref, reg_ref = ref.kernel_values(x[inside], t, k, c)
    return [Check(f"{label} kernel",
                  float(np.max(np.abs(psi[inside] / psi_ref - 1.0))), TABLE_TOL),
            Check(f"{label} kernel_dt regular",
                  float(np.max(np.abs(reg[inside] / reg_ref - 1.0))), TABLE_TOL),
            prop(f"{label} zero outside the cone",
                 bool(np.all(psi[outside] == 0.0) and np.all(reg[outside] == 0.0)))]


def point_law_build(spec: dict) -> list:
    return [_law_op(s) for s in spec["laws"]] + [_table_op(s) for s in spec["tables"]]


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

#: The walk suite keeps the CLI's default seed: its 3-sigma never-flipped
#: check fails on about 0.3% of seeds by design, and a run has one seed.
WALK_ARGS = ["validate", "--suite", "walk", "--dt-walk", "2e-3", "--n-walkers", "200000"]


def cli_batch_spec(seed: int) -> dict:
    rng = random.Random(seed)

    def kt():
        return ["--k", repr(_uniform(rng, 0.5, 2.0)), "--t", repr(_uniform(rng, 0.5, 1.5))]

    def solve(fmt, t, f_width, g_width):
        f = _gauss(rng, f_width)
        g = _gauss(rng, g_width, (-1.0, 1.0))
        return ["solve", "--n", "1025", "--f-center", repr(f[1]), "--f-width", repr(f[2]),
                "--g-amp", repr(g[0]), "--g-center", repr(g[1]), "--g-width", repr(g[2]),
                "--k", repr(_uniform(rng, 0.5, 2.0)), "--t", t, "--format", fmt]

    return {"commands": [
        ["kernel"] + kt() + ["--format", "json"],
        solve("csv", "1.0", 0.7, 0.8),
        solve("json", "0.75", 0.8, 0.7),
        *[["delta", "--kind", kind] + kt() + ["--format", "json"] for kind in KINDS],
        ["validate", "--suite", "fd", "--k", repr(_uniform(rng, 0.5, 2.0))],
        WALK_ARGS,
    ]}


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _schema():
    with open(ROOT / "src" / "telegraph" / "schema" / "output.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(argv: list, cfg) -> Op:
    from telegraph import cli

    env = _cli_env()
    values = cfg.values

    def call():
        proc = subprocess.run([sys.executable, "-m", "telegraph.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def call_inprocess():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit {code}")
        return out.getvalue()

    def check(text):
        command = argv[0]
        is_json = command == "validate" or values.get("format") == "json"
        if not is_json:
            return _check_cli_solve_csv(text, values)
        doc = json.loads(text)
        import jsonschema
        try:
            jsonschema.validate(doc, _schema())
            valid = True
        except jsonschema.ValidationError:
            valid = False
        checks = [prop(f"{command} JSON matches the shipped schema", valid)]
        k, c, t = values["k"], values["c"], values["t"]
        if command == "kernel":
            rows = np.asarray(doc["table"]["rows"], dtype=float)
            checks += _check_table(rows[:, 0], rows[:, 1], rows[:, 2], t, k, c, "cli kernel")
            checks.append(Check("cli kernel atoms",
                                max(abs(a["x"] - p) + abs(a["w"] - 0.5)
                                    for a, p in zip(doc["atoms"], (-c * t, c * t))), 1e-15))
        elif command == "solve":
            rows = np.asarray(doc["table"]["rows"], dtype=float)
            checks.append(_check_cli_solve(rows[:, 0], rows[:, 1], values))
        elif command == "delta":
            x = np.array([p["x"] for p in doc["density"]])
            v = np.array([p["v"] for p in doc["density"]])
            atoms = [(a["x"], a["w"]) for a in doc["atoms"]]
            mass = doc["mass"]
            checks += _check_law(values["kind"], t, k, c, (x, v, atoms),
                                 (mass["atoms"], mass["density"], mass["total"]), "cli ")
        else:
            checks += [prop(f"validate {values['suite']} {r['name']} passes", r["pass"])
                       for r in doc["reports"]]
        return checks

    return Op(" ".join(argv[:3]), call, check, call_inprocess)


def _gauss_args(values: dict):
    f = (1.0, values["f_center"], values["f_width"])
    g = (values["g_amp"], values["g_center"], values["g_width"]) if values["g_amp"] else None
    return f, g


def _check_cli_solve(x, u, values) -> Check:
    f, g = _gauss_args(values)
    expect = _u_reference(x, values["t"], values["k"], values["c"], f, g)
    return Check(f"cli solve {values['format']}", ref.rel_error(u, expect), SOLVE_TOL)


def _check_cli_solve_csv(text: str, values: dict) -> list:
    lines = text.splitlines()
    ok = lines[0] == "x,solution"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return [prop("solve CSV header", ok), _check_cli_solve(rows[:, 0], rows[:, 1], values)]


def cli_batch_build(spec: dict) -> list:
    from telegraph import cli

    parser = cli.build_parser()
    return [_cli_op(argv, cli.merge_config(parser.parse_args(argv)))
            for argv in spec["commands"]]


WORKLOADS = {
    "field-solve": (field_solve_spec, field_solve_build),
    "phase-space": (phase_space_spec, phase_space_build),
    "point-law": (point_law_spec, point_law_build),
    "cli-batch": (cli_batch_spec, cli_batch_build),
}
