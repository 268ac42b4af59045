"""riempoly benchmark: time-to-tolerance fits, end to end and per layer.

    python3 perfbench/run.py --workload rat-kendall --seed 1 --seconds 30 --trace 0

Run it from the root of a riempoly checkout; it imports the package from
``src/``.  Load model: closed loop, one client, one fit at a time in this one
process, with BLAS/OpenMP pinned to one thread.

``--trace 0`` sets up the workload several times (import plus inputs) and
repeats its timed operation until ``--seconds`` is used up, reporting
medians.  ``--trace 1`` runs the operation once plainly and once with every
layer wrapped (see tracing.py), checks that both give the same outputs, and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# The load model is one fit on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# Third-party modules are imported before set-up is timed, so that every
# set-up repeat pays for riempoly's own import and nothing else.
import click  # noqa: E402,F401
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3    # per timed repeat
MIN_REPEATS = 2      # the determinism check compares two repeats


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def purge_riempoly():
    for name in [n for n in sys.modules if n == "riempoly" or n.startswith("riempoly.")]:
        del sys.modules[name]


def check_source():
    """Refuse to measure a riempoly that is not this checkout's."""
    module = sys.modules.get("riempoly")
    path = Path(getattr(module, "__file__", "") or "").resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"imported riempoly from {path}, not from {SRC}")


def measure(setup, args, scratch):
    """Repeat set-up and the timed operation until the next repeat would pass
    the time budget.  Returns reference-speed and wall times of both.

    Set-up repeats are spread over the run, between the timed operations, so
    that both medians sample the same stretch of machine time.
    """
    timer = clock.CalibratedClock()
    setup_ref, setup_wall, solve_ref, solve_wall, outcomes = [], [], [], [], []

    def set_up():
        purge_riempoly()
        # collect the previous import now, so that peak memory does not
        # depend on how many repeats fit in the run
        gc.collect()
        case, wall, ref = timer.time(lambda: setup(ROOT, args.seed, scratch))
        setup_wall.append(wall)
        setup_ref.append(ref)
        return case

    start = perf_counter()
    case = set_up()
    check_source()
    while True:
        for _ in range(SETUP_REPEATS):
            set_up()
        outcome, wall, ref = timer.time(case.run)
        if outcomes:
            outcome.check_same(outcomes[0], "outputs differ from the first repeat")
        outcomes.append(outcome)
        solve_wall.append(wall)
        solve_ref.append(ref)
        used = perf_counter() - start
        if len(outcomes) >= MIN_REPEATS and used + statistics.median(solve_wall) > args.seconds:
            return {"setup_s": setup_ref, "setup_wall_s": setup_wall,
                    "solve_s": solve_ref, "solve_wall_s": solve_wall}, outcomes


def tally(outcomes):
    """Fits attempted, and {(repeat, fit): reason} for those that failed."""
    attempted = sum(len(out.labels) for out in outcomes)
    failed = {(n, label): why for n, out in enumerate(outcomes)
              for label, why in out.failures.items()}
    return attempted, failed


def fit_lines(outcome):
    return [f"  {f.label}: order {f.order} iterations {f.iterations} "
            f"sse {f.sse:.6g} r_squared {f.r_squared:.4f} converged {f.converged}"
            for f in outcome.fits]


def run_plain(setup, args, scratch):
    times, outcomes = measure(setup, args, scratch)
    attempted, failed = tally(outcomes)
    metrics = {
        "solve_s": (statistics.median(times["solve_s"]), "s"),
        "setup_s": (statistics.median(times["setup_s"]), "s"),
        "sse": (outcomes[0].sse, "dist2"),
        "ok_frac": ((attempted - len(failed)) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print("fits:", *fit_lines(outcomes[0]), sep="\n")
    for key, values in times.items():
        print(f"{key} per repeat:", " ".join(f"{t:.4f}" for t in values))
    extra = {f"{k}_repeats": v for k, v in times.items()}
    extra["iterations"] = [f.iterations for f in outcomes[0].fits]
    return attempted, failed, metrics, extra


def run_traced(setup, args, scratch):
    purge_riempoly()
    case = setup(ROOT, args.seed, scratch)
    check_source()
    timer = clock.CalibratedClock()
    plain, _, plain_s = timer.time(case.run)

    tracer = tracing.Tracer()
    tracer.install()
    # the speed samples get spans of their own, so that they do not count
    # as self time of the layer they interrupt
    tracer.trace_function([clock], clock.speed_loop, "clock.sample")
    try:
        traced, _, traced_s = timer.time(case.run)
    finally:
        tracer.uninstall()

    # transparency: the wrappers may change timing only
    traced.check_same(plain, "traced outputs differ from the untraced run")
    attempted, failed = tally([plain, traced])
    summary = tracer.summary()
    metrics = tracing.per_layer_metrics(summary, traced_s - plain_s)
    plain_iterations = sum(f.iterations for f in plain.fits)
    if metrics["regress.iterations"][0] != plain_iterations:
        for label in traced.labels:
            failed.setdefault((1, label), "traced iteration count differs")
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    print("fits:", *fit_lines(plain), sep="\n")
    print(f"solve_s untraced {plain_s:.4f} traced {traced_s:.4f}")
    print(tracing.layer_table(summary, metrics))
    extra = {"solve_s_untraced": plain_s, "solve_s_traced": traced_s,
             "spans": len(tracer.span_start),
             "iterations": [f.iterations for f in plain.fits]}
    return attempted, failed, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riempoly" / "__init__.py").is_file():
        print(f"riempoly sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    setup = workloads.WORKLOADS[args.workload]
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = run_traced if args.trace else run_plain
        attempted, failed, metrics, extra = run(setup, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f"repeat {n} {label}: {why}" for (n, label), why in sorted(failed.items())]
    for line in failures:
        print("FAILED", line)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, **extra, "failures": failures, **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
