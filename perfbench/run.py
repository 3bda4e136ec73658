"""telegraph benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload field-solve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run times ``import telegraph`` and the workload's constructors
(``setup_s``, median over this process and SETUP_PROBES fresh ones), then
repeats whole passes over the workload's fixed list of operations for
``--seconds``, then checks the first pass's outputs against references
computed apart from the program (``references.py``).  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (spans around every public function of
each layer, ``tracing.py``) and reports the per-layer metrics, each the
median over traced passes; spans go to ``perfbench/results/``.

``--repeat N`` runs N such processes one after another on seeds
seed..seed+N-1 and prints each metric's median, quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("field-solve", "phase-space", "point-law", "cli-batch")

#: Fresh processes that repeat the set-up, on top of the run's own.
SETUP_PROBES = 6

#: Every run makes at least this many passes, however short --seconds is;
#: peak_rss_mb is read after the last of them.
MIN_PASSES = 3

#: Cold imports of telegraph.cli timed for cli.import_ms.
IMPORT_PROBES = 5

#: Floor on the relative error, so that an exact match reads 17 digits.
ERROR_FLOOR = 1e-17

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB", "accuracy_digits": "digits"}

#: Single-threaded numeric libraries: one process never runs more than one
#: thread, and results do not depend on thread scheduling.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N processes on seeds seed..seed+N-1 and summarise")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(workload: str) -> float:
    """Import telegraph from this checkout's src; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import telegraph
    if workload == "cli-batch":
        import telegraph.cli  # noqa: F401
    elapsed = perf_counter() - t0
    if Path(telegraph.__file__).resolve().parent != SRC / "telegraph":
        raise SystemExit(f"error: imported telegraph from {telegraph.__file__}, not {SRC}")
    return elapsed


def timed_build(workload: str, spec: dict):
    import workloads
    t0 = perf_counter()
    ops = workloads.WORKLOADS[workload][1](spec)
    return ops, perf_counter() - t0


def setup_probe(args) -> int:
    spec = json.load(sys.stdin)
    import_s = import_program(args.workload)
    _, build_s = timed_build(args.workload, spec)
    print(repr(import_s + build_s))
    return 0


def probe_setup(workload: str, spec: dict) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--setup-probe"], input=json.dumps(spec), capture_output=True,
                          text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def cold_import_ms() -> float:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import telegraph.cli; print(repr(time.perf_counter() - t0))")
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(1e3 * float(proc.stdout.strip()))
    return statistics.median(samples)


def run_pass(ops, failures, inprocess=False):
    """One pass over every operation: (outputs, latencies, failed count)."""
    outputs, latencies, failed = [], [], 0
    for op in ops:
        call = op.call_inprocess if inprocess and op.call_inprocess else op.call
        t0 = perf_counter()
        try:
            out = call()
        except failures as exc:
            out = exc
            failed += 1
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, failed


def check_outputs(ops, outputs, failures):
    """(all checks passed, worst relative error) over the non-failed outputs."""
    ok, worst = True, 0.0
    for op, out in zip(ops, outputs):
        if isinstance(out, failures):
            print(f"failed: {op.name}: {type(out).__name__}: {out}", file=sys.stderr)
            continue
        for check in op.check(out):
            if not check.passed:
                ok = False
                print(f"check failed: {op.name}: {check.label}: error {check.error:.3g} "
                      f"> {check.tol:.3g}", file=sys.stderr)
            if check.accuracy:
                worst = max(worst, check.error)
    return ok, worst


def run(args) -> int:
    import_s = import_program(args.workload)
    import workloads
    from tracing import Tracer, layer_metrics, n_exponent

    spec = workloads.WORKLOADS[args.workload][0](args.seed)
    ops, build_s = timed_build(args.workload, spec)
    setup = [import_s + build_s] + [probe_setup(args.workload, spec)
                                    for _ in range(SETUP_PROBES)]
    failures = workloads.FAILURES
    cli = args.workload == "cli-batch"

    # Memory is read after a fixed amount of work: the heap keeps growing
    # slowly by fragmentation over passes, and the number of passes in a
    # run follows the host's speed.
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_rss_mb = None
    passes = []          # (pass seconds, traced?)
    latencies = []
    attempted = failed = 0
    first = None
    tracing = bool(args.trace)
    tracer = Tracer()
    layers = []
    deadline = perf_counter() + args.seconds
    while True:
        # traced and untraced passes alternate, so drift in host speed
        # reaches both halves of trace.overhead_pct alike
        traced = tracing and len(passes) % 2 == 1
        if traced:
            tracer.install()
            lo = len(tracer)
        t0 = perf_counter()
        outputs, lat, n_failed = run_pass(ops, failures, inprocess=tracing and cli)
        elapsed = perf_counter() - t0
        if traced:
            tracer.uninstall()
            layers.append(layer_metrics(tracer, lo, len(tracer)))
        passes.append((elapsed, traced))
        latencies.extend(lat)
        attempted += len(ops)
        failed += n_failed
        first = first if first is not None else outputs
        if len(passes) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        n_traced = sum(1 for _, tr in passes if tr)
        if perf_counter() >= deadline and len(passes) >= MIN_PASSES and \
                (not tracing or n_traced >= 1):
            break

    correct, worst = check_outputs(ops, first, failures)

    if not tracing:
        metrics = {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(t for t, _ in passes),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
            "accuracy_digits": -math.log10(max(worst, ERROR_FLOOR)),
        }
        units = END_TO_END_UNITS
    else:
        metrics = {key: statistics.median(layer[key] for layer in layers)
                   for key in layers[0] if not key.startswith("_")}
        metrics["solver.solve.n_exponent"] = n_exponent(
            [p for layer in layers for p in layer["_solve_points"]])
        metrics["cli.import_ms"] = cold_import_ms() if cli else 0.0
        metrics["cli.output_bytes"] = (float(sum(len(out.encode()) for out in first
                                                 if isinstance(out, str))) if cli else 0.0)
        untraced = statistics.median(t for t, tr in passes if not tr)
        traced_s = statistics.median(t for t, tr in passes if tr)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
        units = per_layer_units()
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def repeat(args) -> int:
    """Run --repeat processes and print median, quartiles and spread per metric."""
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", repr(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(line) if line.startswith("{") else {}
        result["seed"] = seed
        result["exit"] = proc.returncode
        results.append(result)
        print(f"seed {seed}: exit {proc.returncode} correct {result.get('correct')} "
              f"attempted {result.get('attempted')} failed {result.get('failed')}",
              file=sys.stderr)
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
    bounds = {}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        for m in json.load(fh)["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    summary = {}
    names = [n for n in results[0].get("metrics", {})] if results else []
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound/3':>8s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if "metrics" in r]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "values": values, "unit": results[0]["metrics"][name]["unit"]}
        limit = f"{bounds[name] / 3:8.4f}" if name in bounds else ""
        print(f"{name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {limit}")
    shares = sorted({(r.get("failed"), r.get("attempted")) for r in results})
    print("failed/attempted per run:", " ".join(f"{f}/{a}" for f, a in shares))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"repeat-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "runs": results, "summary": summary}, fh, indent=1)
    return 0 if all(r["exit"] == 0 for r in results) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "telegraph" / "__init__.py").is_file():
        print(f"error: no telegraph package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        return setup_probe(args)
    if args.repeat:
        return repeat(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
