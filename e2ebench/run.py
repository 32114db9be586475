#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <mf_dsgd|kge_complex|zipf_serving> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test   # tests of the correctness checks

Run it from the root of a source tree. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), build output
goes to stderr, and the last line of stdout is the benchmark's JSON result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    if not all(os.path.isfile(os.path.join(ROOT, *f)) for f in
               (("src", "ps", "system.h"), ("bench", "bench_common.cc"))):
        print("e2ebench: library sources not found under " + ROOT,
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    self_test = argv == ["--self-test"]
    try:
        binary = build(build_dir,
                       "e2ebench_tests" if self_test else "e2ebench")
    except (OSError, subprocess.CalledProcessError) as err:
        print("e2ebench: build failed: %s" % err, file=sys.stderr)
        return 2
    try:
        if self_test:
            return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        return proc.returncode
    # The binary accepted the flags, so --trace has an integer value.
    trace = "--trace" in argv and int(argv[argv.index("--trace") + 1]) == 1
    return check_metric_names(proc.stdout, trace)


def check_metric_names(stdout, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(json.loads(stdout.strip().splitlines()[-1])["metrics"])
    if sorted(got) != sorted(want):
        print("e2ebench: metrics %s differ from BENCHMARK.json %s"
              % (sorted(set(got) ^ set(want)), "per_layer" if trace
                 else "end_to_end"), file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
