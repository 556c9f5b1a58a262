#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The driver is built with CMake (Release)
into the directory named by CARGO_TARGET_DIR, or .bench_build, relative
to the root. The driver's last stdout line is the JSON result; build
output goes to stderr. --self-check runs every workload at a tiny size
and fails unless every metric BENCHMARK.json names is emitted with its
unit, every output check passes, and the simulated-output digests and
paper_err do not depend on the thread count.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("serve_replay", "cluster_mixed", "design_sweep", "nerf_quant")
DRIVER_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cached_source(build):
    """The source directory a previous configure of `build` used."""
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    build = build_dir()
    source = cached_source(build)
    if source is not None and os.path.realpath(source) != os.path.realpath(SOURCE):
        shutil.rmtree(build)  # configured for another checkout
        source = None
    steps = []
    if source is None or not os.path.exists(os.path.join(build, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build, "perfbench_driver")


def run_driver(driver, args, capture):
    try:
        proc = subprocess.run([driver] + args, timeout=DRIVER_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def invariant_lines(stdout):
    """Digest and paper_err lines: simulated outputs only."""
    return [line for line in stdout.splitlines()
            if line.startswith("[digest]") or line.startswith("[fidelity]")
            or line.startswith("[metric] paper_err=")]


def self_check(driver):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(label, args, metrics):
        code, out = run_driver(driver, args, capture=True)
        result = result_of(out) if code == 0 else None
        if result is None:
            problems.append("%s: driver exited %d" % (label, code))
            return out
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("%s: result keys %s" % (label, sorted(result)))
        if not result.get("correct") or result.get("failed") != 0 \
                or result.get("attempted", 0) < 1:
            problems.append("%s: outputs failed their checks" % label)
        got = result.get("metrics", {})
        for metric in metrics:
            entry = got.get(metric["name"])
            if entry is None or entry.get("unit") != metric["unit"]:
                problems.append("%s: metric %s missing or not in %s"
                                % (label, metric["name"], metric["unit"]))
        if set(got) != {m["name"] for m in metrics}:
            problems.append("%s: unexpected metrics %s"
                            % (label, sorted(set(got) - {m["name"] for m in metrics})))
        return out

    tiny = ["--seed", "7", "--seconds", "1", "--tiny"]
    for workload in WORKLOADS:
        outs = [check("%s threads=%d" % (workload, threads),
                      ["--workload", workload, "--trace", "0",
                       "--threads", str(threads)] + tiny,
                      spec["end_to_end"])
                for threads in (1, 2)]
        if invariant_lines(outs[0]) != invariant_lines(outs[1]) \
                or not invariant_lines(outs[0]):
            problems.append("%s: digests or paper_err differ between 1 and 2 "
                            "threads" % workload)
    check("traced", ["--workload", WORKLOADS[0], "--trace", "1"] + tiny,
          spec["per_layer"])

    for problem in problems:
        print("self-check: " + problem, file=sys.stderr)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and None in (args.workload, args.seed,
                                        args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_check and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    if driver is None:
        return 1
    if args.self_check:
        return self_check(driver)
    code, _ = run_driver(driver, ["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
