"""Run one workload of the hochlat benchmark and print its metrics.

    python3 perfbench/run.py --workload battery-n7 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports ``hochlat`` from the ``src/`` directory
next to this one and exits with an error if there is none.  The workloads
are defined in ``workloads.py``; ``BENCHMARK.json`` lists the metrics.

``--trace 0`` measures the end-to-end metrics: an untimed warm-up operation,
then operations back to back for ``--seconds``, each also timed in units of a
reference kernel sampled while it runs (``reference.py``).  ``--trace 1``
alternates untraced and traced operations for ``--seconds`` (at least two of
each) and reports the per-layer metrics of the traced ones, plus the tracing
overhead.
Before every operation the lru caches of ``hochlat`` are cleared and the
garbage collector runs, so each operation does the same cold work.  BLAS
runs one thread, so that one run keeps one core busy.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``metrics`` holds exactly the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) metrics of
``BENCHMARK.json``.  The lines before it print every metric by name and
unit.  A full record (all metrics, each operation, the environment) is
written to ``perfbench/results/``, with the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Set before numpy is first imported (by hochlat); fresh set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_SUFFIXES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5

CAVEAT = (
    "Shared machine: other tenants' load is not controlled, there is no CPU pinning and no "
    "cache control (file cache, CPU frequency); BLAS is limited to one thread. op_p50_ref "
    "counts operation time in units of a reference kernel sampled during the operation, "
    "which cancels most changes of machine speed. "
    "Compare medians over several runs, not single runs."
)


def use_source_tree():
    """Put the repository's ``src/`` first on the import path, or exit."""
    if not (SRC / "hochlat" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no hochlat sources under {SRC}")
    sys.path.insert(0, str(SRC))


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one operation ------------------------------------------------------------


def attempt(workload):
    """Failed checks of one operation; a raised exception is a failure too."""
    try:
        return workload.operation()
    except Exception as exc:  # noqa: BLE001  (counted, and the loop goes on)
        return [f"{type(exc).__name__}: {exc}"]


def one_op(workload, tracer=None, op_id=0, gauge=None):
    """Run one cold operation; return (seconds, failed checks).

    With a gauge, return (seconds, failed checks, reference units).
    """
    workload.clear_caches()
    gc.collect()
    if gauge is not None:
        failures, seconds, units = gauge.measure(attempt, workload)
        return seconds, failures, units
    if tracer is None:
        start = perf_counter()
        failures = attempt(workload)
        return perf_counter() - start, failures
    with tracer.operation(op_id):
        start = perf_counter()
        failures = attempt(workload)
        seconds = perf_counter() - start
    return seconds, failures


def tail(durations):
    """The highest nearest-rank percentile with at least ten samples beyond it."""
    xs = sorted(durations)
    rank = len(xs) - 10
    if rank < 1:
        return None, None
    return xs[rank - 1], 100.0 * rank / len(xs)


# -- the two kinds of run ---------------------------------------------------------


def measure_setup(name, seed):
    """Set-up seconds of SETUP_REPEATS - 1 fresh interpreters (the caller adds its own)."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def untraced_run(workload, seconds, own_setup_s):
    ops, units = [], []
    gauge = reference.Gauge()
    warm = one_op(workload)
    start = perf_counter()
    while perf_counter() - start < seconds:
        op_s, failures, op_units = one_op(workload, gauge=gauge)
        ops.append((op_s, failures))
        units.append(op_units)
    elapsed = perf_counter() - start
    durations = [s for s, _ in ops]
    correct = sum(1 for _, f in ops if not f)
    tail_s, tail_pct = tail(durations)
    setups = [own_setup_s] + measure_setup(workload.name, workload.seed)
    metrics = {
        # Per second of operation time, which leaves out the reference samples.
        "ops_per_s": correct / sum(durations),
        "op_p50_s": statistics.median(durations),
        "op_p50_ref": statistics.median(units),
        "ref_p50_s": statistics.median(gauge.kernel_s),
        "op_tail_s": tail_s,
        "op_tail_percentile": tail_pct,
        "samples": len(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "fail_ratio": (len(ops) - correct) / len(ops),
        "timed_phase_s": elapsed,
    }
    record = {
        "warm_up": {"seconds": warm[0], "failures": warm[1]},
        "setup_samples_s": setups,
        "op_ref": units,
        "reference_kernel_s": gauge.kernel_s,
    }
    return ops, metrics, record, warm[1]


def traced_run(workload, seconds):
    tracer = Tracer()
    ops, traced, untraced, layers, problems = [], [], [], [], []
    warm = one_op(workload)
    start = perf_counter()
    while perf_counter() - start < seconds or len(traced) < 2 or len(untraced) < 2:
        trace_this = len(ops) % 2 == 1
        seconds_op, failures = one_op(workload, tracer if trace_this else None, len(ops))
        ops.append((seconds_op, failures))
        if trace_this:
            traced.append(seconds_op)
            layers.append(tracer.metrics())
        else:
            untraced.append(seconds_op)
    first = layers[0]
    for i, later in enumerate(layers[1:], start=2):
        moved = [k for k in first if k.endswith(COUNT_SUFFIXES) and later[k] != first[k]]
        if moved:
            problems.append(f"traced op {i} repeats op 1 with other counts: {', '.join(moved)}")
    for i, layer in enumerate(layers, start=1):
        if layer["trace.self_sum_error_s"] > 1e-6:
            problems.append(f"traced op {i}: self times miss the op time by {layer['trace.self_sum_error_s']} s")
    metrics = {}
    for key in first:
        if key.endswith(COUNT_SUFFIXES):
            metrics[key] = first[key]
        else:
            metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.attributed_share"] = metrics["trace.attributed_s"] / metrics["trace.op_s"]
    record = {
        "warm_up": {"seconds": warm[0], "failures": warm[1]},
        "traced_op_s": traced,
        "untraced_op_s": untraced,
        "missing_targets": tracer.missing,
        "trace_problems": problems,
    }
    return ops, metrics, record, warm[1] + problems, tracer.spans


# -- environment and output ----------------------------------------------------------


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def source_digest():
    """SHA-256 over src/hochlat/*.py, which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hochlat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = f"unknown ({exc})"
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


UNITS = (
    ("_per_s", "1/s"),
    (("_s", ".s"), "s"),
    ("_mb", "MB"),
    ("_ref", "ref"),
    ("bytes", "B"),
    ("percentile", "%"),
    (("ratio", "overhead", "share"), "ratio"),
)


def unit_of(name):
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def results_path(name, seed, trace):
    return RESULTS / f"{name}-seed{seed}-trace{trace}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    spec = load_spec()

    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = perf_counter() - start
    spans = None
    if args.trace:
        ops, metrics, record, problems, spans = traced_run(workload, args.seconds)
        listed = spec["per_layer"]
    else:
        ops, metrics, record, problems = untraced_run(workload, args.seconds, setup_s)
        listed = spec["end_to_end"]

    failed = sum(1 for _, f in ops if f)
    correct = failed == 0 and not problems
    record.update(
        workload=args.workload,
        why=next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        correct=correct,
        attempted=len(ops),
        failed=failed,
        ops=[{"seconds": s, "failures": f} for s, f in ops],
        metrics={k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        environment=environment(),
        caveat=CAVEAT,
    )
    RESULTS.mkdir(exist_ok=True)
    path = results_path(args.workload, args.seed, args.trace)
    path.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(path.with_suffix(".spans.jsonl"), "w") as out:
            for span_id, parent, op, name, t0, t1 in spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                      "start": t0, "end": t1}) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} operations, {failed} failed; record in {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"  problem: {problem}")
    listed_names = {m["name"] for m in listed}
    for name, value in metrics.items():
        if args.trace and not value and name not in listed_names:
            continue  # a layer this workload never enters
        print(f"  {name:45s} {value!s:>24} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
