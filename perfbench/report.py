"""Print the end-to-end metrics and the tracing overhead of every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs ``run.py`` for each workload, once with ``--trace 0`` and once with
``--trace 1``, each in a fresh process, and prints one table built from the
records those runs write to ``perfbench/results/``.  Exits 1 if any
operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import workloads
from run import HERE, results_path

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p50_ref", "ref"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("fail_ratio", "ratio"),
)


def run_one(name, seed, seconds, trace):
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(results_path(name, seed, trace).read_text())


def cell(metrics, name):
    value = metrics[name]["value"]
    if name == "op_tail_s":
        samples = metrics["samples"]["value"]
        if value is None:
            return f"n/a ({samples} samples, needs 11)"
        return f"{value:.4g} (p{metrics['op_tail_percentile']['value']:.0f} of {samples})"
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    rows, all_correct = [], True
    for name in workloads.WORKLOADS:
        plain = run_one(name, args.seed, args.seconds, 0)
        traced = run_one(name, args.seed, args.seconds, 1)
        all_correct = all_correct and plain["correct"] and traced["correct"]
        row = [cell(plain["metrics"], m) for m, _ in END_TO_END]
        row.append(f"{traced['metrics']['trace_overhead']['value']:.3f}")
        rows.append((name, row))
    header = [f"{m} ({u})" for m, u in END_TO_END] + ["trace_overhead (ratio)"]
    print("| workload | " + " | ".join(header) + " |")
    print("|---" * (len(header) + 1) + "|")
    for name, row in rows:
        print(f"| {name} | " + " | ".join(row) + " |")
    env = plain["environment"]
    print(f"\ncommit {env['git_commit']}, python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}; {plain['caveat']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
