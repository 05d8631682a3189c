#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: determinism and seed sensitivity.

Run from the repository root:

    python3 e2e_bench/selftest.py

For every workload it runs a fixed number of transactions three times
untraced, twice with one seed and once with another, and twice traced with
the first seed. The two same-seed untraced runs must report identical
deterministic counts (decisions, messages per transaction, WAL bytes per
transaction, median simulated ticks, failed fraction, input fingerprint);
the other seed must generate different inputs. The two traced runs must
report identical per-layer counts: every per-layer metric that is not a
time. On the clean workloads (no aborts, crashes or checkpoints) every
journaled store call appends one WAL record, so the traced store-call count
must equal the stores' own record count: the spans cover the measured
transactions and nothing else. Every run must also pass the benchmark's own
correctness gate. Exits non-zero on any failure.
"""

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Transactions per run: at least one full epoch (plus probes) per workload.
TXNS = {"commit-small": 60, "commit-large": 30, "chaos-recover": 40}
CLEAN = {"commit-small", "commit-large"}
SEED, OTHER_SEED = 7, 8
# Per-layer units that measure wall time, and so vary between runs.
TIME_UNITS = {"ms", "us", "%"}


def run(workload: str, seed: int, trace: int) -> tuple:
    """Returns (last JSON line, deterministic counts or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "60", "--trace", str(trace),
           "--txns", str(TXNS[workload])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness gate failed")
    for line in lines:
        if line.startswith("deterministic "):
            return result, json.loads(line[len("deterministic "):])
    if trace == 0:
        raise RuntimeError(f"{workload} seed {seed}: no deterministic line")
    return result, None


def layer_counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIME_UNITS}


def differences(first: dict, second: dict) -> dict:
    return {k: (first.get(k), second.get(k)) for k in first.keys() | second
            if first.get(k) != second.get(k)}


def main() -> int:
    failures = 0
    for workload in TXNS:
        try:
            _, first = run(workload, SEED, 0)
            _, second = run(workload, SEED, 0)
            _, other = run(workload, OTHER_SEED, 0)
            traced = [layer_counts(run(workload, SEED, 1)[0])
                      for _ in range(2)]
        except RuntimeError as error:
            print(f"FAIL {workload}: {error}")
            failures += 1
            continue
        problems = []
        if first != second:
            problems.append(f"same seed, different counts: "
                            f"{differences(first, second)}")
        if first["input_fingerprint"] == other["input_fingerprint"]:
            problems.append("a different seed generated the same inputs")
        if first["attempted"] != TXNS[workload]:
            problems.append(f"ran {first['attempted']} transactions")
        if not traced[0]:
            problems.append("the traced run reported no per-layer counts")
        elif traced[0] != traced[1]:
            problems.append(f"same seed, different per-layer counts: "
                            f"{differences(*traced)}")
        elif (workload in CLEAN and traced[0]["storage.calls_per_txn"] !=
              traced[0]["storage.wal_records_per_txn"]):
            problems.append("traced store calls per txn "
                            f"{traced[0]['storage.calls_per_txn']} != WAL "
                            f"records {traced[0]['storage.wal_records_per_txn']}")
        if problems:
            failures += 1
            print(f"FAIL {workload}: " + "; ".join(problems))
        else:
            print(f"ok   {workload}: {json.dumps(first, sort_keys=True)}; "
                  f"{len(traced[0])} per-layer counts repeat")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
