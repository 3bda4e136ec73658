"""Regenerate the golden documents in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each CLI case writes ``<name>`` from ``telegraph <argv> --out <name>``.  Each
library case (``lib_*.csv``) writes library outputs on the ``solve_n129``
data as CSV text with 17 significant digits, the CLI's format: scalars on
``# name,value...`` lines, then one column per array.  ``platform.json``
records the numpy version and BLAS that produced them.
``tests/test_golden.py`` compares each document byte for byte.  A change
that moves an output on purpose reruns this script and names each changed
file in CHANGES.md.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

import telegraph as tg
from telegraph import cli

HERE = Path(__file__).resolve().parent

#: file name -> CLI argv (without --out)
CASES = {
    "kernel_n65.csv": "kernel --n 65",
    "kernel_n65.json": "kernel --n 65 --format json",
    "solve_n129.csv": "solve --n 129 --g-amp 0.5 --g-center 0.2",
    "solve_n129.json": "solve --n 129 --g-amp 0.5 --g-center 0.2 --format json",
    "delta_position_n129.json": "delta --n 129 --format json",
    "delta_velocity_n129.json": "delta --kind delta_velocity --n 129 --format json",
    "delta_financial_n129.json": "delta --kind financial --n 129 --format json",
    "delta_financial_n129.csv": "delta --kind financial --n 129",
    "validate_all.json": "validate --suite all",
}


def _number(v) -> str:
    return f"{v:.17g}"


def _document(scalars=(), **columns) -> str:
    """``# name,value...`` lines for each scalar row, then the columns as CSV."""
    lines = [f"# {name}," + ",".join(map(_number, vals)) for name, *vals in scalars]
    lines.append(",".join(columns))
    lines += [",".join(map(_number, row)) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


def _data():
    """The ``solve_n129`` data: n = 129 on [-8, 8], f = e^{-x^2}, g = 0.5 e^{-(x-0.2)^2}."""
    grid = tg.SpaceGrid(-8.0, 16.0 / 128, 129)
    f = tg.from_function(grid, lambda x: np.exp(-x ** 2))
    g = tg.from_function(grid, lambda x: 0.5 * np.exp(-(x - 0.2) ** 2))
    return f, g


def _field(fn, k, t):
    """``solve`` or ``velocity`` with its error estimate, at c = 1."""
    u, estimate = fn(*_data(), t, tg.MediumParams(k=k, c=1.0), error_estimate=True)
    return _document([("estimate", estimate)], u=u.values)


def _evolve(k, t):
    state = tg.evolve(t, tg.StatePair(*_data()), tg.MediumParams(k=k, c=1.0))
    return _document(u=state.u.values, ut=state.ut.values)


def _convolve(which):
    f, _ = _data()
    m = tg.MixedMeasure(atoms=((0.3, 0.7), (-1.0, 0.2)), density=f,
                        support=(f.grid.x0, f.grid.x_end))
    out = tg.convolve_measure(m, 0.5, tg.MediumParams(k=1.0, c=1.0), which)
    grid = out.density.grid
    return _document([("grid", grid.x0, grid.dx, grid.n), ("support", *out.support),
                      *(("atom", p, w) for p, w in out.atoms)], density=out.density.values)


def _point_law(kind, k):
    """A point law at t = c = 1 on ``telegraph delta --n 129``'s default grid, |x| <= 1.1 c t."""
    grid = tg.SpaceGrid(-1.1, 2.2 / 128, 129)
    law = tg.point_source_solution(kind, 1.0, tg.MediumParams(k=k, c=1.0), grid)
    mass = law.mass_breakdown()
    return _document([*(("atom", p, w) for p, w in law.atoms),
                      ("mass", mass.atoms, mass.density, mass.total)],
                     density=law.density.values)


def _duhamel():
    residual = tg.duhamel_residual(*_data(), 0.25, tg.MediumParams(k=4.0, c=1.0),
                                   tg.DuhamelConfig(n_slabs=8))
    return _document(residual=[residual])


def _norms():
    rows = tg.norm_report(tg.StatePair(*_data()), tg.MediumParams(k=1.0, c=1.0),
                          (0.0, 0.25, 1.0))
    return _document(**{name: [getattr(r, name) for r in rows]
                        for name in ("t", "u_l2", "ut_l2", "ux_l2", "envelope")})


#: file name -> library output, as document text
LIBRARY = {
    **{f"lib_solve_k{k:g}_t{t:g}.csv": (lambda k=k, t=t: _field(tg.solve, k, t))
       for k, t in ((0, 0.37), (1, 0.37), (1, -0.37), (20, 1), (200, 0.02))},
    **{f"lib_velocity_k{k:g}_t{t:g}.csv": (lambda k=k, t=t: _field(tg.velocity, k, t))
       for k, t in ((1, 0.37), (1, -0.37), (20, 1))},
    **{f"lib_evolve_k{k:g}_t{t:g}.csv": (lambda k=k, t=t: _evolve(k, t))
       for k, t in ((1, 0.37), (20, 1))},
    **{f"lib_convolve_{which}.csv": (lambda which=which: _convolve(which))
       for which in ("kernel", "kernel_dt")},
    **{f"lib_{kind}_k{k:g}.csv": (lambda kind=kind, k=k: _point_law(kind, k))
       for kind in ("delta_position", "delta_velocity", "financial") for k in (1, 200)},
    "lib_duhamel_k4_t0.25.csv": _duhamel,
    "lib_norm_report_k1.csv": _norms,
}


def platform_record() -> dict:
    """The numpy version and BLAS the documents were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version",
                                                   "openblas configuration")}}


def write_case(name: str, out_dir: Path) -> int:
    """Write one case into out_dir/name; the CLI's exit code, 0 for a library case."""
    if name in LIBRARY:
        (out_dir / name).write_text(LIBRARY[name](), encoding="utf-8")
        return 0
    return cli.main([*CASES[name].split(), "--out", str(out_dir / name)])


def main() -> int:
    for name in [*CASES, *LIBRARY]:
        code = write_case(name, HERE)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
    text = json.dumps(platform_record(), indent=2) + "\n"
    (HERE / "platform.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
