#!/usr/bin/env python3
"""Builds and runs one kgbench workload; prints the result as the last line.

Usage, from the root of a kgov source tree:

    python3 kgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: qa_cold, qa_hot, learn_batch, stream_mixed (see kgbench/README.md).
The script configures and builds kgbench/ (which pulls in the kgov libraries
from the enclosing tree) under .bench_build/, runs the workload in its own
process, prints one metadata line ("kgbench-meta {...}") and then the
result object on the last line of stdout. It exits non-zero, without a
result, when the source tree is missing, the build fails, or a workload
self-check aborts; and non-zero with "correct": false when an output check
fails. Span files of traced runs are kept in .bench_build/traces/.

Every run prints every metric BENCHMARK.json declares for its mode. A
per-layer metric the workload does not measure, mostly because it does not
exercise that layer, reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("qa_cold", "qa_hot", "learn_batch", "stream_mixed")
BUILD_TYPE = "Release"
# Seed kept out of every tuning run, for checking later performance claims.
HELDOUT_SEED = 51407
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"kgbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    source = root / "kgbench"
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(build_dir), "--target", "kgbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "kgbench"


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def first_line(command, cwd):
    try:
        out = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def metadata(root, build_dir, work_dir, args):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "kgov_lock_debug": cache_value(build_dir, "KGOV_LOCK_DEBUG"),
        "compiler": first_line([compiler, "--version"], root),
        "git_sha": first_line(["git", "rev-parse", "HEAD"], root),
        "wal_fs_type": first_line(["stat", "-f", "-c", "%T", str(work_dir)],
                                  root),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (root / needed).is_file():
            fail(f"no kgov source tree here: {root / needed} is missing")

    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "kgbench"
    binary = build(root, build_dir)

    work_dir = build_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    meta = metadata(root, build_dir, work_dir, args)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    started = time.monotonic()
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    meta["run_wall_s"] = round(time.monotonic() - started, 3)

    traces = build_root / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for trace in work_dir.glob("trace-*.jsonl"):
        shutil.move(str(trace), traces / trace.name)
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with code {run.returncode}", 3)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 3)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not declared in "
                 "BENCHMARK.json", 3)
    missing = sorted(set(units) - set(metrics))
    if missing and not args.trace:
        fail(f"{args.workload} did not report {', '.join(missing)}", 3)
    if missing:
        # Mostly layers this workload does not exercise.
        print(f"kgbench: not measured by {args.workload}, reported as 0: "
              + ", ".join(missing), file=sys.stderr)
        for name in missing:
            metrics[name] = {"value": 0, "unit": units[name]}
        result["metrics"] = {name: metrics[name] for name in units}
    print("kgbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
