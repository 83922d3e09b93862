#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
slider library and the perfbench program (Release) under $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally. The program's last
stdout line is the result object; this script checks that its metrics are
exactly those BENCHMARK.json lists for the mode (end-to-end with --trace 0,
per-layer with --trace 1) and exits non-zero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env, stdout):
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(3)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "work")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                       build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                      BUILD_TIMEOUT_S, env, sys.stderr)
        if code != 0:
            sys.exit(f"configure failed ({code})")
    code, _ = run(["cmake", "--build", build_dir, "-j", "4", "--target",
                   "perfbench"], BUILD_TIMEOUT_S, env, sys.stderr)
    if code != 0:
        sys.exit(f"build failed ({code})")

    code, out = run([os.path.join(build_dir, "perfbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--workdir", work_dir], RUN_TIMEOUT_S, env, subprocess.PIPE)
    lines = out.decode().strip().splitlines()
    if code != 0 or not lines:
        sys.exit(f"perfbench failed ({code})")
    result = json.loads(lines[-1])
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        sys.exit(f"metric names differ from BENCHMARK.json: "
                 f"{sorted(set(result['metrics']) ^ wanted)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
