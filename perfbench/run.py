#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the harness and the
darkside libraries from source into the build directory ($CARGO_TARGET_DIR,
default .bench_build) and trains the model zoo into its cache there; later
runs reuse both. Every run prints a stamp line (machine, kernel backend,
build, source digest, seed, the share of CPU time stolen by the hypervisor
during the workload) and, as its last line, one JSON result with
the keys correct, attempted, failed and metrics. A failed build, set-up or
output check exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

WORKLOADS = ("sweep_unbounded", "sweep_nbest", "serve_nbest90")
# Seed that later performance claims are re-checked on; never used while
# tuning a change.
HELD_OUT_SEED = 9001
BUILD_TYPE = "Release"
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout)
    if done.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"{' '.join(cmd)} failed (log: {log_path})")


def build(build_dir):
    """Configure once, then bring the harness up to date."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", cmake_dir,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   os.path.join(build_dir, "configure.log"), 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", cmake_dir, "--target",
                "perfbench_harness", "-j", jobs],
               os.path.join(build_dir, "build.log"), 900)
    return os.path.join(cmake_dir, "perfbench_harness")


def source_digest():
    """SHA-256 over the sources the harness is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(".git"):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/ is missing")
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    harness = build(build_dir)
    cache = os.path.join(build_dir, "model_cache")

    # Train the model zoo into the benchmark's own cache before any timed
    # run; with a warm cache this only loads it. Reported, never a metric.
    start = time.monotonic()
    run_logged([harness, "prepare", "--cache", cache],
               os.path.join(build_dir, "prepare.log"), 900)
    print(f"prepare: {time.monotonic() - start:.1f} s (model cache {cache})")

    cmd = [harness, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", cache,
           "--work", os.path.join(build_dir, "work"),
           "--pins", os.path.join("perfbench", "pins.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"harness exited with {done.returncode}")

    backend = "unknown"
    steal_share = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("info "):
            backend = json.loads(line[5:]).get("backend", backend)
        elif line.startswith("host "):
            steal_share = json.loads(line[5:]).get("steal_share")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel_backend": backend,
        "steal_share": steal_share,
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
