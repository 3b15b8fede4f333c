#!/usr/bin/env python3
"""Repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload archive-sync|rib-rt|fanout|live \
        --seed N --seconds T --trace 0|1

Run from the repository root. Builds the library and the perfbench
program from source into .bench_build/ (Release), generates the
workload's seeded inputs and sequential reference digests into
.bench_build/cache/ (once per seed, untimed, in a separate process),
then measures the workload for T seconds in a fresh process that runs
only that workload. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the lines above
it name every metric with its unit. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("archive-sync", "rib-rt", "fanout", "live")


def run_checked(cmd, timeout, stdout=None):
    """Runs cmd to completion (killing it on timeout); exits on failure."""
    proc = subprocess.Popen(cmd, stdout=stdout if stdout else sys.stderr,
                            stderr=sys.stderr, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
    if proc.returncode != 0:
        sys.exit("perfbench: %s failed with exit code %d" %
                 (" ".join(cmd), proc.returncode))
    return out


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    build_dir = os.path.join(BUILD_ROOT, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs], timeout=840)
    return os.path.join(build_dir, "perfbench")


def report(spec, trace, output):
    """Formats the perfbench program's output as the benchmark's report.

    `output` is what `perfbench run` printed: note lines, then one JSON
    line with the measured values by name. Returns the report's lines:
    the notes, one 'name value unit' line per metric BENCHMARK.json
    declares for the mode (end_to_end, or per_layer when traced), and
    the result JSON. A declared metric that was not measured (or, in an
    untraced run, is not > 0) or a measured value that BENCHMARK.json
    does not declare fails the result. A traced run reports 0 for a
    layer that does not run on the workload.
    """
    lines = output.strip().splitlines()
    raw = json.loads(lines[-1])
    section = "per_layer" if trace else "end_to_end"
    declared = spec[section]
    problems = ["%s is measured but not a %s metric of BENCHMARK.json" %
                (name, section)
                for name in sorted(set(raw["values"]) -
                                   {m["name"] for m in declared})]
    metrics = {}
    for m in declared:
        value = raw["values"].get(m["name"], None if not trace else 0.0)
        if value is None or not math.isfinite(value) or (not trace and
                                                          value <= 0):
            problems.append("%s was not measured (%r)" % (m["name"], value))
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": raw["correct"] and raw["failed"] == 0 and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return (lines[:-1] + ["# CHECK FAILED: " + p for p in problems] +
            ["%-28s %18.6f %s" % (name, v["value"], v["unit"])
             for name, v in metrics.items()] +
            [json.dumps(result)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be > 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    binary = build()
    cache = os.path.join(BUILD_ROOT, "cache")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache", cache]
    # Inputs and references: generated once per seed, in their own
    # process, and reported separately from every measured metric.
    run_checked([binary, "prepare"] + common, timeout=150, stdout=sys.stdout)
    sys.stdout.flush()
    output = run_checked([binary, "run", "--seconds", str(args.seconds),
                          "--trace", str(args.trace)] + common,
                         timeout=int(args.seconds) * 3 + 120,
                         stdout=subprocess.PIPE)
    print("\n".join(report(spec, args.trace, output)), flush=True)


if __name__ == "__main__":
    main()
