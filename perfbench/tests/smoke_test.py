#!/usr/bin/env python3
"""Tiny-corpus smoke run of all four workloads, untraced and traced.

Runs the perfbench program at --scale tiny, formats its output the way
run.py does, and asserts that every run's checks all passed (correct,
no failed operations) and that the report names every metric
BENCHMARK.json declares for its mode, each with the declared unit
(end-to-end metrics also > 0).

    python3 perfbench/tests/smoke_test.py [--binary PATH] [--cache DIR]

The defaults are the binary run.py builds (.bench_build/cmake/perfbench)
and a cache beside it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(HERE))
import run as bench  # noqa: E402  perfbench/run.py

WORKLOADS = ("archive-sync", "rib-rt", "fanout", "live")


def run(binary, cache, workload, trace):
    common = ["--workload", workload, "--seed", "7", "--cache", cache,
              "--scale", "tiny"]
    subprocess.run([binary, "prepare"] + common, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return subprocess.run([binary, "run", "--seconds", "1", "--trace",
                           str(trace)] + common, check=True, timeout=120,
                          stdout=subprocess.PIPE, text=True).stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary",
                        default=os.path.join(ROOT, ".bench_build", "cmake",
                                             "perfbench"))
    parser.add_argument("--cache",
                        default=os.path.join(ROOT, ".bench_build",
                                             "smoke-cache"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            lines = bench.report(spec, trace,
                                 run(args.binary, args.cache, workload, trace))
            result = json.loads(lines[-1])
            label = "%s trace=%d" % (workload, trace)
            before = len(failures)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0:
                failures.append("%s: checks failed: %s" % (
                    label, [l for l in lines if "CHECK FAILED" in l]))
            if result["attempted"] < 1:
                failures.append("%s: nothing attempted" % label)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(want):
                failures.append("%s: metrics %s, want %s" % (
                    label, sorted(metrics), sorted(want)))
            for name, unit in want.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    failures.append("%s: %s unit %r, want %r" % (
                        label, name, got.get("unit"), unit))
                if trace == 0 and not got.get("value", 0) > 0:
                    failures.append("%s: %s = %r" % (label, name,
                                                     got.get("value")))
                # The human-readable table names each metric with its unit.
                if not any(l.split()[:1] == [name] and l.split()[-1] == unit
                           for l in lines):
                    failures.append("%s: no '%s ... %s' line" % (label, name,
                                                                 unit))
            print("ok  " if len(failures) == before else "FAIL", label,
                  flush=True)
    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
