#!/usr/bin/env python3
"""Build the bpbench program from source and run one benchmark run.

Run from the repository root:

    python3 bpbench/run.py --workload paper-8c|sweep-32c|trace-regions \
        [--seed N] [--seconds S] [--trace 0|1] [--workers N]

The first run in a checkout configures and builds the library and the
bpbench program into .bench_build/bpbench (Release); later runs only
check that the build is current. Each run first executes the output
check's self-test, then the program itself, in a temp dir under
.bench_build that is removed afterwards. With --trace 1 the spans of
the run are written as Chrome trace-event JSON to .bench_build/traces/.

Everything the program prints goes to stdout; the last line is one JSON
object with the keys correct, attempted, failed and metrics. Build
output goes to stderr. The exit code is 0 only when a result was
printed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "bpbench"
WORKLOADS = ("paper-8c", "sweep-32c", "trace-regions")
DEFAULT_SEED = 12345  # WorkloadParams' default seed
RUN_TIMEOUT_S = 170   # a run must end within 180 s
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; return the program's path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources in {ROOT}; nothing to build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build failed: {error}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(step)} exited {done.returncode}")
            return None
    program = BUILD / "bpbench"
    return program if program.is_file() else None


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library sources and build file: identifies the
    measured code where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or not 1 <= args.workers <= 64:
        parser.error("--seed must be >= 0, --seconds >= 1, --workers 1..64")
    return args


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1)


def main():
    args = parse_args()
    program = build()
    if program is None:
        return 2

    try:
        self_test = subprocess.run([str(program), "--self-test"],
                                   stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=60, check=False).returncode
    except subprocess.TimeoutExpired:
        self_test = None
    if self_test != 0:
        log("the output check's self-test failed")
        return 3

    tmp = ROOT / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    command = [str(program), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workers", str(args.workers),
               "--tmp", str(tmp)]
    if args.trace:
        trace_out = (ROOT / ".bench_build" / "traces" /
                     f"{args.workload}-seed{args.seed}.json")
        command += ["--trace-out", str(trace_out)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log(f"the run did not end within {RUN_TIMEOUT_S} s")
        return 4
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = output.rstrip("\n").split("\n")
    if process.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(output)
        log(f"bpbench exited {process.returncode} without a result")
        return 5
    for line in lines[:-1]:
        print(line)
    print("env " + json.dumps({"git_revision": git_revision(),
                               "source_sha256": source_digest(),
                               "nproc": os.cpu_count()}))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
