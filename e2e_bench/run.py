#!/usr/bin/env python3
"""Builds and runs the end-to-end distributed-transaction benchmark.

Run from the repository root:

    python3 e2e_bench/run.py --workload commit-small --seed 1 --seconds 10 --trace 0

The first run configures and builds e2e_bench/ (the library sources under
src/ plus the e2e_txn_bench program) into .bench_build/e2e_bench; later runs only rebuild
what changed. Build output goes to standard error, so the last line of
standard output is the program's JSON result. The exit code is the program's:
non-zero when a correctness check failed. Without the library sources the
script fails at once and prints no result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY = "e2e_txn_bench"
# A first run builds within BUILD_LIMIT_S; the program itself always ends
# within RUN_LIMIT_S.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def build_root() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e_bench"


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("build time limit reached")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def pin_to_one_cpu() -> None:
    """Keeps the single-threaded program on one CPU (the highest-numbered it
    may use): migrations between CPUs widen the run-to-run spread."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def build(out: pathlib.Path) -> pathlib.Path:
    sources = ROOT / "src"
    if not sources.is_dir() or not any(sources.rglob("*.cc")):
        fail(f"no library sources under {sources}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_step(cmd, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(out), "-j", jobs], deadline)
    binary = out / BINARY
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--txns", type=int, default=0,
                        help="stop after exactly this many transactions")
    args = parser.parse_args()

    out = build_root()
    binary = build(out)
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(out / "work")]
    if args.trace == 1:
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.txns > 0:
        cmd += ["--txns", str(args.txns)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=pin_to_one_cpu)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{BINARY} exceeded {RUN_LIMIT_S} s")
    return 2


if __name__ == "__main__":
    sys.exit(main())
