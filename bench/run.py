"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload king_converge --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the run sets the workload up
several times (``setup_s`` is the median), then repeats whole passes over
the workload's fixed operations for about ``--seconds`` seconds, at least
once, and prints the end-to-end metrics of ``BENCHMARK.json``, each the
median of its per-pass values.  With
``--trace 1`` it makes one untraced pass and one traced pass and prints the
per-layer metrics; the spans go to ``.bench_out/spans-<workload>.npz``.

Each line before the last names a metric with its value and unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when an operation fails its gate, unless
the failure is the signature of a documented known defect (see
``NOTES.md``); every failure is counted in ``failed`` either way.
"""

import os

# Pin BLAS to one thread before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 11

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class Pass:
    """Per-operation wall times and gate outcomes of one pass."""

    wall_s: float = 0.0
    op_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (op, reason, known defect or "")
    results: list = field(default_factory=list)


def run_pass(ops, tracer=None) -> Pass:
    """Run every operation once, in order, and gate each result.

    An exception counts as a failure of that operation; nothing is retried.
    """
    out = Pass()
    clock = time.perf_counter
    begin = clock()
    for index, op in enumerate(ops):

        def attempt(op=op):
            result = op.run()
            return result, op.check(result)

        t0 = clock()
        try:
            if tracer is None:
                result, reason = attempt()
            else:
                result, reason = tracer.run_op(index, attempt)
        except Exception as exc:  # noqa: BLE001 - counted, reported, never dropped
            result = None
            reason = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        out.op_s.append(clock() - t0)
        out.results.append(result)
        if reason is not None:
            known = "" if result is None else op.known_defect(result)
            out.failures.append((op, reason, known))
    out.wall_s = clock() - begin
    return out


def harrell_davis(samples, p):
    """Harrell-Davis estimate of the ``p``-quantile of ``samples``.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of all order statistics.
    For the few dozen operations of a pass it has a much smaller sampling
    spread than a single order statistic, which moves with whichever op
    happens to sit at that rank.
    """
    # Imported here, after peak_rss_mb is read, so scipy's own memory does
    # not count as the program's.
    from scipy.special import betainc

    ordered = np.sort(np.asarray(samples, dtype=float))
    n = len(ordered)
    cdf = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ ordered)


def tail_percentile(n):
    """Highest percentile with at least ``TAIL_BEYOND`` of ``n`` samples
    beyond it, or ``None`` when there are too few samples."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workloads.build(workload, workloads.load_program(), seed, OUT / workload)
        setups.append(time.perf_counter() - t0)

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    percentile = tail_percentile(len(ops))
    if percentile is None:
        raise SystemExit(f"{workload}: {len(ops)} operations are too few for a tail")
    print(f"passes {len(passes)} ops_per_pass {len(ops)}")
    print(f"setup_s.samples {' '.join(f'{s:.4f}' for s in setups)} s")

    # Each pass gives one value of every metric and the run reports their
    # median, so the tail keeps its meaning however many passes fit.
    def per_pass(metric):
        return statistics.median(metric(p) for p in passes)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": per_pass(lambda p: p.wall_s),
        "op_s.p50": per_pass(lambda p: harrell_davis(p.op_s, 0.5)),
        "op_s.tail": per_pass(lambda p: harrell_davis(p.op_s, percentile / 100.0)),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"op_s.tail": f"(p{percentile:.1f} of {len(ops)} operations per pass, "
                          f"{TAIL_BEYOND} beyond)"}
    return values, notes, passes


def per_layer(workload, seed, names):
    untraced = run_pass(workloads.build(workload, workloads.load_program(), seed, OUT / workload))

    tracer = Tracer()
    program = workloads.load_program()
    tracer.install()
    try:
        traced = run_pass(workloads.build(workload, program, seed, OUT / workload), tracer)
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{workload}.npz")

    totals = tracer.layer_totals()

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    iterations = sum(len(r.history) - 1 for r in traced.results if hasattr(r, "history"))
    derived = {
        "solver.iters_per_solve": ratio(iterations, calls("solver.solve_metric")),
        "moment.gradients_per_iter": ratio(calls("moment.kempf_ness_gradient"), iterations),
        "moment.values_per_iter": ratio(calls("moment.kempf_ness_value"), iterations),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    values = {}
    for name in names:
        prefix, _, kind = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif kind == "calls":
            values[name] = calls(prefix)
        elif kind == "self_s":
            values[name] = totals.get(prefix, (0, 0.0))[1]
        elif kind == "constructions":
            values[name] = tracer.constructions[prefix]
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    notes = {"trace.overhead_s": f"(traced {traced.wall_s:.4f} s, "
                                 f"untraced {untraced.wall_s:.4f} s, "
                                 f"{len(tracer.name_id)} spans)"}
    return values, notes, [untraced, traced]


def report(spec_metrics, values, notes, passes):
    """Print one line per metric and the closing JSON line; return it."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]} {notes.get(name, '')}".rstrip())
    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for op, reason, known in failures:
        tag = f" [known defect: {known}]" if known else ""
        print(f"FAIL {op.name}: {reason}{tag}")
    print(f"fail_ratio {len(failures) / attempted!r} ratio ({len(failures)}/{attempted})")
    line = {
        "correct": all(known for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(line))
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "momentmap" / "__init__.py").is_file():
        print(f"error: no momentmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if args.trace:
        metrics = spec["per_layer"]
        values, notes, passes = per_layer(args.workload, args.seed, [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        values, notes, passes = end_to_end(args.workload, args.seed, args.seconds)
    report(metrics, values, notes, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
