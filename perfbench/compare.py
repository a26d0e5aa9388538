#!/usr/bin/env python3
"""Compares two sets of benchmark records (standard library only).

    python3 perfbench/run.py --workload W --seed N ... --out base.jsonl
    (repeat over seeds and workloads, then again on the changed tree)
    python3 perfbench/compare.py base.jsonl new.jsonl
    python3 perfbench/compare.py --self-test

Refuses to compare records whose host fingerprints (nproc, CPU model,
compiler, -march, build type) differ. For every workload, one row per
end-to-end metric of BENCHMARK.json: each side's median, quartiles and
run count, the change of the median, and a verdict:

  better      the new median beats the base by more than the base's
              quartile spread (or every new run beats every base run)
  worse       the new median is worse than the base by more than the
              metric's bound (or every new run is worse than every base
              run by more than the bound)
  same        within the bound, no gain shown
  unresolved  a side's quartile spread is wider than the bound, and the
              runs do not separate completely

Each record carries a host probe: a fixed integer loop timed before and
after the run. A run whose slower probe exceeds the quickest probe of
either file by more than --busy (default 15%) was taken while the host
was busy; it is set aside, counted, and left out of the timing rows.

It also checks the exact work counts: records with the same workload
and seed must agree on every count, within a file (a repeat) and across
the two files (the change did not alter the work done). Set-aside runs
still take part in that check.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINT_KEYS = ("nproc", "cpu", "compiler", "march", "build_type")


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint(record):
    return tuple(record["fingerprint"].get(k) for k in FINGERPRINT_KEYS)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better, bound):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed)  # > 0: the new side is worse
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > bound * abs(bmed)
                    for n in new for b in base)
    if all_better:
        return "better"
    if all_worse:
        return "worse"
    if bq3 - bq1 > bound * abs(bmed) or nq3 - nq1 > bound * abs(nmed):
        return "unresolved"
    if worse_by > bound * abs(bmed):
        return "worse"
    if -worse_by > bq3 - bq1:
        return "better"
    return "same"


def exact_mismatches(records):
    """(workload, seed, count) triples on which same-seed records differ."""
    seen, bad = {}, []
    for r in records:
        key = (r["workload"], r["seed"])
        counts = r.get("exact_counts", {})
        if key in seen:
            for name in sorted(set(seen[key]) | set(counts)):
                if seen[key].get(name) != counts.get(name):
                    bad.append((key[0], key[1], name))
        else:
            seen[key] = counts
    return bad


def probe_ms(record):
    """The slower of the record's two host probes, or None."""
    probe = record.get("host_probe_ms")
    return max(probe.values()) if probe else None


def quiet_runs(base, new, busy):
    """(base, new) without the runs whose host probe reads busy."""
    probes = [p for p in map(probe_ms, base + new) if p is not None]
    if not probes:
        return base, new
    limit = min(probes) * (1.0 + busy)

    def keep(record):
        p = probe_ms(record)
        return p is None or p <= limit

    return [r for r in base if keep(r)], [r for r in new if keep(r)]


def compare(base, new, spec, out=sys.stdout, busy=0.15):
    prints = {fingerprint(r) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare: host fingerprints differ:", file=out)
        for p in sorted(prints, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in
                                   zip(FINGERPRINT_KEYS, p)), file=out)
        return 2
    all_base, all_new = base, new
    base, new = quiet_runs(base, new, busy)
    for label, kept, total in (("base", base, all_base), ("new", new, all_new)):
        if len(kept) != len(total):
            print(f"{label}: set aside {len(total) - len(kept)} of "
                  f"{len(total)} runs taken on a busy host "
                  f"(host probe over {busy:.0%} above the quickest)", file=out)
    metrics = spec["end_to_end"]
    print(f"{'workload':<14} {'metric':<18} {'base median [q1, q3] (n)':<34} "
          f"{'new median [q1, q3] (n)':<34} {'change':>8}  verdict", file=out)
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not b_runs or not n_runs:
            if any(r["workload"] == workload for r in all_base + all_new):
                print(f"{workload:<14} unresolved: no quiet runs on one side",
                      file=out)
            continue
        for m in metrics:
            b = [r["end_to_end"][m["name"]] for r in b_runs]
            n = [r["end_to_end"][m["name"]] for r in n_runs]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            change = (nmed - bmed) / bmed * 100 if bmed else float("nan")
            print(f"{workload:<14} {m['name']:<18} "
                  f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] ({len(b)})':<34} "
                  f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}] ({len(n)})':<34} "
                  f"{change:>7.1f}%  "
                  f"{verdict(b, n, m['better'], m['bound'])}", file=out)
    status = 0
    for label, records in (("base", all_base), ("new", all_new),
                           ("base vs new", all_base + all_new)):
        bad = exact_mismatches(records)
        if bad:
            status = 1
            print(f"exact counts differ ({label}): " + ", ".join(
                f"{w} seed {s} {c}" for w, s, c in bad[:10]), file=out)
        else:
            print(f"exact counts agree ({label})", file=out)
    return status


def self_test():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    expect(quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5), "quartiles")
    expect(quartiles([7.0]) == (7.0, 7.0, 7.0), "one-value quartiles")
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    expect(verdict(base, [80, 81, 79, 80], "lower", 0.1) == "better",
           "clear gain")
    expect(verdict(base, [120, 121, 119, 125], "lower", 0.1) == "worse",
           "clear loss")
    expect(verdict(base, [101, 100, 102, 99], "lower", 0.1) == "same",
           "noise only")
    expect(verdict(base, [60, 140, 100, 100, 70, 130], "lower", 0.1)
           == "unresolved", "spread wider than the bound")
    expect(verdict(base, [90, 91, 89, 90], "higher", 0.05) == "worse",
           "higher-is-better loss")

    def rec(seed, value, cpu="x", steps=5, probe=30.0):
        return {"workload": "w", "seed": seed,
                "fingerprint": {"nproc": 4, "cpu": cpu, "compiler": "c",
                                "march": "m", "build_type": "Release"},
                "host_probe_ms": {"before": 30.0, "after": probe},
                "end_to_end": {"t": value}, "exact_counts": {"steps": steps}}

    quiet = quiet_runs([rec(1, 1.0), rec(2, 1.0, probe=40.0)],
                       [rec(1, 1.0, probe=33.0)], 0.15)
    expect([len(side) for side in quiet] == [1, 1],
           "a run with a busy host probe is set aside")

    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "better": "lower", "bound": 0.1}]}
    sink = open(os.devnull, "w", encoding="utf-8")
    expect(compare([rec(1, 1.0)], [rec(1, 1.0, cpu="y")], spec, sink) == 2,
           "mismatched fingerprints are refused")
    expect(compare([rec(1, 1.0), rec(2, 1.1)], [rec(1, 1.0), rec(2, 1.0)],
                   spec, sink) == 0, "matching counts pass")
    expect(compare([rec(1, 1.0)], [rec(1, 1.0, steps=6)], spec, sink) == 1,
           "a changed count is reported")
    sink.close()
    for what in failures:
        print(f"compare.py self-test FAILED: {what}", file=sys.stderr)
    if not failures:
        print("compare.py self-test: all checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    parser.add_argument("--busy", type=float, default=0.15,
                        help="set aside runs whose host probe is this share "
                             "above the quickest (default 0.15)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("need BASE and NEW record files")
    with open(args.bench, encoding="utf-8") as f:
        spec = json.load(f)
    return compare(load(args.base), load(args.new), spec, busy=args.busy)


if __name__ == "__main__":
    sys.exit(main())
