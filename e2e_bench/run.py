#!/usr/bin/env python3
"""End-to-end benchmark of the NER Globalizer stream and fleet paths.

Run from the repository root:

    python3 e2e_bench/run.py --workload single_stream --seed 1 --seconds 20 --trace 0

Builds the benchmark (and the nerglob libraries it links) from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the repository
root, then runs one workload. A separate process first trains the model
bundle into a cache under the same directory, keyed by a hash of the built
binary, so only the first run of a build trains and no measured run does.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. See e2e_bench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_stream", "fleet_distinct", "fleet_retweet")
RUN_TIMEOUT_S = 175
TRAIN_TIMEOUT_S = 600


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2e_bench: nerglob sources (src/) not found next to e2e_bench/")
    cmake_dir = out_dir / "e2e_bench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "--target", "e2e_bench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("e2e_bench: build failed: " + " ".join(step))
    return cmake_dir / "e2e_bench"


def bundle_cache_dir(out_dir, binary):
    # Keyed by the binary, which links every library: a change to training,
    # the classifier or the embedder never reuses another build's weights.
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return out_dir / "nerglob_cache" / digest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="short streams (self-test only)")
    parser.add_argument("--corrupt", choices=("spans", "order"),
                        help="corrupt the reference output (self-test only)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cache_dir = bundle_cache_dir(out_dir, binary)
    try:
        trained = subprocess.run(
            [str(binary), "--train-only", "--cache-dir", str(cache_dir)],
            stdout=sys.stderr, timeout=TRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2e_bench: training exceeded %d s" % TRAIN_TIMEOUT_S)
    if trained.returncode != 0:
        sys.exit("e2e_bench: training failed")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", str(cache_dir)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2e_bench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
