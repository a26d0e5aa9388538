#!/usr/bin/env python3
"""Builds and runs the benchmark; prints the result as its last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py ... --out results.jsonl   # also keep the record
    python3 perfbench/run.py --self-test               # harness self-tests

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus bench.cpp) into
$CARGO_TARGET_DIR, or .bench_build when unset; later runs only rebuild
what changed. The perfbench binary does the measuring (see README.md);
this script maps its record onto the metrics BENCHMARK.json names and
prints, in order: one human-readable line per figure, one JSON line
with the full record (host fingerprint, seed, the per-workload report
and the exact work counts), and the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero, printing no result, when
the build or the benchmark binary fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not list (see
# README.md for why). They can be run by hand and print the same
# metrics.
EXTRA_WORKLOADS = ["zoo_optimize"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    log = sys.stderr
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=log, stderr=log,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: '{' '.join(step)}' exited "
                  f"{done.returncode}", file=sys.stderr)
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, args):
    """Runs the binary; returns its JSON record or None."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: binary exited {done.returncode}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: binary printed no record", file=sys.stderr)
        return None


def result(record, spec, trace):
    """The result object for one record."""
    source = record.get("per_layer", {}) if trace else record["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, missing = {}, []
    for metric in wanted:
        value = source.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = record["failed"] + len(missing)
    return {
        "correct": failed == 0,
        "attempted": record["attempted"] + len(missing),
        "failed": failed,
        "metrics": metrics,
    }


def self_test(binary):
    ok = subprocess.run([binary, "--self-test"], check=False).returncode == 0
    compare = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), "--self-test"],
        check=False)
    return ok and compare.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir(), f"work-{os.getpid()}")
    record = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir])
    if record is None:
        return 1

    sections = ["end_to_end", "report"] + (["per_layer"] if args.trace else [])
    for section in sections:
        for name, value in record.get(section, {}).items():
            print(f"{args.workload} {section} {name} = {value}")
    for error in record.get("errors", {}).values():
        print(f"{args.workload} ERROR {error}")
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result(record, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
