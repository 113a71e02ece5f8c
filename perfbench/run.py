#!/usr/bin/env python3
"""Builds and runs the kvec serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload replay-encoder --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The first run configures and compiles the
library and the benchmark into the build directory ($CARGO_TARGET_DIR,
default .bench_build) and trains the model bundles there, under a
subdirectory named by a digest of the sources; later runs of the same
sources reuse them. The benchmark's result is the last line of standard output: one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_logged(command):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def source_digest():
    """A digest of every file the build and the model bundles come from."""
    paths = []
    for top in ("src", "perfbench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(directory, name) for name in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def source_id(digest):
    """The git commit when there is one, else the source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    return "source-sha256:" + digest


def build(keyed):
    """Builds kvec_perf and trains the bundles under `keyed`, a directory
    that belongs to one version of the sources."""
    cmake_out = os.path.join(keyed, "cmake")
    if not os.path.exists(os.path.join(cmake_out, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", cmake_out,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", cmake_out, "-j", jobs]):
        return None
    binary = os.path.join(cmake_out, "kvec_perf")
    models = os.path.join(keyed, "models")
    if not run_logged([binary, "train", "--model-dir", models]):
        return None
    return binary, models


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build_dir()
    digest = source_digest()
    built = build(os.path.join(out, digest))
    if built is None:
        log("build failed")
        return 1
    binary, models = built

    scratch = os.path.join(out, "scratch", "%s-%d-%s-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--model-dir", models,
               "--scratch", scratch, "--trace-dir", traces,
               "--git-sha", source_id(digest)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
