#!/usr/bin/env python3
"""Builds and runs finelog's benchmark (described in BENCHMARK.json).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles finelog from src/) into
.bench_build/, runs one workload in a scratch workspace under .bench_build/,
and prints the result as the last line of stdout: one JSON object with the
keys correct, attempted, failed and metrics. --trace 1 also writes the spans
to .bench_build/trace/<workload>.spans.tsv. Build logs go to stderr.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    # CARGO_TARGET_DIR may name the build directory; a value resolving
    # outside the checkout is ignored.
    env = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / env).resolve()
    if ROOT not in path.parents:
        path = ROOT / ".bench_build"
    return path


def build(out):
    cmake_dir = out / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Once configured, "cmake --build" re-runs the configure step itself
        # whenever a CMakeLists.txt changes.
        cmds = [["cmake", "--build", str(cmake_dir), "-j", "4"]]
        if not (cmake_dir / "CMakeCache.txt").exists():
            cmds.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in cmds:
            try:
                proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if proc.returncode != 0:
                fail("build failed: %s exited %d"
                     % (" ".join(cmd[:2]), proc.returncode))
    exe = cmake_dir / "finelog_perfbench"
    if not exe.exists():
        fail("build produced no %s" % exe)
    return exe


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    # Write back what the build (or an earlier run) left dirty, so that
    # writeback does not land inside the measured fdatasyncs.
    os.sync()
    work = out / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work)]
    if args.trace:
        trace_dir = out / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / (args.workload + ".spans.tsv"))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    shutil.rmtree(work, ignore_errors=True)

    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail("%s exited with %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    wanted = expected_metrics(args.trace)
    missing = wanted - set(result["metrics"])
    if missing:
        fail("metrics missing from the result: %s" % sorted(missing))
    result["metrics"] = {k: v for k, v in result["metrics"].items()
                         if k in wanted}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
