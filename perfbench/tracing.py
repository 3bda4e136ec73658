"""Spans around calls into telegraph's public functions, taken from outside.

``Tracer.install`` replaces each listed function by a wrapper at every
module attribute of the package that refers to it: ``solver``,
``oracles``, ``semigroup`` and ``cli`` import names directly, so patching
only the defining module would miss their calls.  ``uninstall`` puts the
originals back.

A span is (name, start, end, parent, work): ``parent`` is the index of the
enclosing span or -1, and ``work`` a size the span reports (Bessel
arguments, kernel points, quadrature nodes, walker steps, FD cell steps,
or the grid size of a solve).  Spans stay in typed arrays in memory and
are written once, by ``save``, when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


def _size(a, kw):
    return float(np.size(a[0]))


def _solve_n(a, kw):
    return float(a[0].grid.n)


def _solve_group(a, kw):
    """|t| and whether the coarse Richardson solve runs too: solves whose
    cost differs only through n share a group."""
    return abs(float(a[2])) + (1000.0 if kw.get("error_estimate") else 0.0)


def _simpson_nodes(a, kw):
    return float(a[3] + 1)


def _bin_nodes(a, kw):
    panels = a[3] if len(a) > 3 else kw.get("panels_per_bin", 8)
    return float(np.size(a[1]) * (panels + 1))


def _walker_steps(a, kw):
    return float(a[0].n_walkers * a[0].n_steps)


def _cell_steps(a, kw):
    return float(a[0].grid.n * a[4].steps)


#: (module, function, span name, work, group) for every traced function.
TARGETS = (
    ("telegraph.fields", "sample_shifted", "fields.sample_shifted", None, None),
    ("telegraph.fields", "sample_at", "fields.sample_at", None, None),
    ("telegraph.solver", "solve_rescaled", "solver.solve", _solve_n, _solve_group),
    ("telegraph.solver", "velocity", "solver.velocity", None, None),
    ("telegraph.solver", "convolve_measure", "solver.convolve_measure", None, None),
    ("telegraph.solver", "point_source_solution", "solver.point_source_solution", None, None),
    ("telegraph.semigroup", "evolve", "semigroup.evolve", None, None),
    ("telegraph.semigroup", "norm_report", "semigroup.norm_report", None, None),
    ("telegraph.bessel", "i0_array", "bessel", _size, None),
    ("telegraph.bessel", "i1_array", "bessel", _size, None),
    ("telegraph.bessel", "i1_over_z_array", "bessel", _size, None),
    ("telegraph.kernel", "fundamental_solution", "kernel", _size, None),
    ("telegraph.kernel", "time_derivative_regular", "kernel", _size, None),
    ("telegraph.quadrature", "composite_simpson", "quadrature", _simpson_nodes, None),
    ("telegraph.quadrature", "integrate_bins", "quadrature", _bin_nodes, None),
    ("telegraph.oracles", "simulate_walk", "oracles.simulate_walk", _walker_steps, None),
    ("telegraph.oracles", "fd_solve", "oracles.fd_solve", _cell_steps, None),
    ("telegraph.oracles", "binned_tv_distance", "oracles.binned_tv_distance", None, None),
    ("telegraph.oracles", "duhamel_residual", "oracles.duhamel_residual", None, None),
    ("telegraph.cli", "main", "cli.main", None, None),
    ("telegraph.cli", "cmd_kernel", "cli.cmd", None, None),
    ("telegraph.cli", "cmd_solve", "cli.cmd", None, None),
    ("telegraph.cli", "cmd_delta", "cli.cmd", None, None),
    ("telegraph.cli", "cmd_validate", "cli.cmd", None, None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = array("d")
        self.group = array("d")
        self._stack = [-1]
        self._patches: list = []

    def _wrap(self, span: str, fn, work, group):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        works, groups, stack = self.work, self.group, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            works.append(work(args, kwargs) if work else 0.0)
            groups.append(group(args, kwargs) if group else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "telegraph" or key.startswith("telegraph."))]
        for mod_name, attr, span, work, group in TARGETS:
            if mod_name not in sys.modules:  # telegraph.cli outside cli-batch
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span, original, work, group)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans [lo, hi) as numpy arrays, with self time per span."""
        hi = len(self) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=float)[lo:hi]
               - np.frombuffer(self.start, dtype=float)[lo:hi])
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        child = np.zeros(hi - lo)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {"name": name, "dur": dur, "self": dur - child,
                "work": np.frombuffer(self.work, dtype=float)[lo:hi],
                "group": np.frombuffer(self.group, dtype=float)[lo:hi]}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=float))


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer figures of the spans [lo, hi) of one pass."""
    s = tracer.arrays(lo, hi)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def sel(span):
        return s["name"] == ids.get(span, -1)

    def count(span):
        return float(np.count_nonzero(sel(span)))

    def ms(span, key="dur"):
        return 1e3 * float(np.sum(s[key][sel(span)]))

    def work(span):
        return float(np.sum(s["work"][sel(span)]))

    bessel_args = work("bessel")
    out = {
        "fields.sample_shifted.calls": count("fields.sample_shifted"),
        "fields.sample_shifted.ms": ms("fields.sample_shifted"),
        "fields.sample_at.calls": count("fields.sample_at"),
        "fields.sample_at.ms": ms("fields.sample_at"),
        "solver.solves": count("solver.solve"),
        "solver.solve.self_ms": ms("solver.solve", "self"),
        "solver.convolve_measure.ms": ms("solver.convolve_measure"),
        "solver.velocity.ms": ms("solver.velocity"),
        "solver.point_source_solution.ms": ms("solver.point_source_solution"),
        "semigroup.evolve.calls": count("semigroup.evolve"),
        "semigroup.evolve.ms": ms("semigroup.evolve"),
        "semigroup.norm_report.ms": ms("semigroup.norm_report"),
        "bessel.calls": count("bessel"),
        "bessel.args": bessel_args,
        "bessel.ms": ms("bessel"),
        "bessel.ns_per_arg": 1e6 * ms("bessel") / bessel_args if bessel_args else 0.0,
        "kernel.calls": count("kernel"),
        "kernel.points": work("kernel"),
        "kernel.self_ms": ms("kernel", "self"),
        "quadrature.nodes": work("quadrature"),
        "quadrature.ms": ms("quadrature"),
        "oracles.simulate_walk.ms": ms("oracles.simulate_walk"),
        "oracles.walk.walker_steps": work("oracles.simulate_walk"),
        "oracles.fd_solve.ms": ms("oracles.fd_solve"),
        "oracles.fd_solve.cell_steps": work("oracles.fd_solve"),
        "oracles.binned_tv_distance.ms": ms("oracles.binned_tv_distance"),
        "oracles.duhamel_residual.ms": ms("oracles.duhamel_residual"),
        "cli.serialise_ms": ms("cli.main", "self"),
    }
    solves = sel("solver.solve")
    out["_solve_points"] = list(zip(s["work"][solves], s["group"][solves], s["dur"][solves]))
    return out


#: Solves with |t| below this sit at the 64-panel quadrature floor on every
#: benchmark grid (dx >= 1/1024), where per-call overhead, not n, sets the cost.
EXPONENT_MIN_T = 0.25


def n_exponent(points) -> float:
    """Slope of log time against log n, one intercept per group of solves.

    Solves in one group (same |t|, same error-estimate flag) differ in cost
    only through n.  Groups with a single n carry no slope and drop out;
    0 when no group has two sizes.
    """
    groups: dict = {}
    for n, group, dur in points:
        if group % 1000.0 >= EXPONENT_MIN_T:
            groups.setdefault(group, []).append((np.log(n), np.log(dur)))
    num = den = 0.0
    for rows in groups.values():
        ln, lt = np.array(rows).T
        if np.ptp(ln) == 0.0:
            continue
        dn = ln - ln.mean()
        num += float(np.sum(dn * (lt - lt.mean())))
        den += float(np.sum(dn * dn))
    return num / den if den else 0.0
