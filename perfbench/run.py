#!/usr/bin/env python3
"""Builds and runs the WSQ/DSQ end-to-end benchmark (BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a source tree. Builds perfbench/ (the library plus
the wsq_bench runner) into .bench_build/ with CMake, runs one workload
in a scratch directory under the build tree, and prints two lines on
stdout: wsq_bench's full JSON document (every metric, per-round values,
checks), then the result line: {"correct", "attempted", "failed",
"metrics"} holding BENCHMARK.json's end_to_end metrics (--trace 0) or
its per_layer metrics (--trace 1). With --trace 1 the traced round's
spans are written to .bench_build/traces/. If a check or a statement
fails the result line says "correct": false and the exit status is 1;
if the tree cannot be built or wsq_bench reports nothing, it exits
non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def run(cmd, timeout):
    """Runs cmd in its own process group and waits for it; on timeout
    kills the whole group, so no child (wsq_bench starts set-up probe
    processes) outlives it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/ tree to build here")
    cmake_dir = BUILD / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "wsq_bench", "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, timeout=880)
        sys.stderr.write(out)
        if code != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return cmake_dir / "wsq_bench"


def git_sha():
    """The checkout's commit, or "unknown" if it is not a git clone."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Any workload wsq_bench knows runs, the gated ones of BENCHMARK.json
    # and the diagnostic ones (README.md); wsq_bench rejects the rest.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    scratch = BUILD / "scratch" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--scratch",
           str(scratch), "--git-sha", git_sha()]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        code, out = run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: wsq_bench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: wsq_bench printed nothing (exit {code})")
    doc = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"run.py: wsq_bench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            sys.exit(f"run.py: {m['name']} is in {got['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    correct = bool(doc["correct"]) and code == 0
    print(lines[-1])
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
