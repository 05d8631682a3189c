#!/usr/bin/env bash
# CI gate for axmlx: warnings-as-errors build, full test suite, project
# linter (plus a machine-readable `axmlx_lint --json` artifact), a perf
# smoke stage (which includes the bench_obs_overhead flight-recorder budget
# gate), an end-to-end forensics render, the end-to-end benchmark's
# deterministic counts against bench/baselines/e2e/deterministic.txt, and the
# fault-injection, call-catalog, payload, journal and parser-robustness
# suites under ASan/UBSan.
# Exits non-zero on the first failure. See DESIGN.md §6b.
#
# The perf smoke stage runs the hot-path benches with --smoke and diffs
# their reports against the committed smoke baselines in
# bench/baselines/smoke/. By default the diff is report-only; set
# CHECK_PERF=1 to also fail the gate when ops/sec regresses by more than
# 30% (smoke runs on shared machines are noisy, so the gate is opt-in).
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n=== %s ===\n' "$*"; }

step "configure + build (-DAXMLX_WERROR=ON)"
cmake -B "$BUILD_DIR" -S . -DAXMLX_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

step "full test suite"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "static analysis (ctest -L lint)"
ctest --test-dir "$BUILD_DIR" -L lint --output-on-failure

step "static analysis artifact (axmlx_lint --json src)"
# Machine-readable findings for CI archival; a non-empty array exits 1 and
# fails the gate. CHECK_LINT_JSON overrides the artifact path.
LINT_JSON="${CHECK_LINT_JSON:-$BUILD_DIR/lint-findings.json}"
"$BUILD_DIR/tools/axmlx_lint" --json src > "$LINT_JSON"
echo "lint findings artifact: $LINT_JSON"

step "bench smoke (--smoke reports validated by axmlx_report --check)"
BUILD_ABS="$(cd "$BUILD_DIR" && pwd)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
(
  cd "$SMOKE_DIR"
  for bench in "$BUILD_ABS"/bench/bench_*; do
    [ -x "$bench" ] || continue
    "$bench" --smoke
  done
  reports=(BENCH_*.json)
  if [ ! -e "${reports[0]}" ]; then
    echo "FAIL: no BENCH_*.json reports produced by the smoke run" >&2
    exit 1
  fi
  "$BUILD_ABS/tools/axmlx_report" --check BENCH_*.json
)

step "perf smoke (axmlx_report --diff vs bench/baselines/smoke)"
REPO_ABS="$(pwd)"
(
  cd "$SMOKE_DIR"
  for baseline in "$REPO_ABS"/bench/baselines/smoke/BENCH_*.json; do
    [ -e "$baseline" ] || continue
    report="$(basename "$baseline")"
    if [ ! -e "$report" ]; then
      echo "FAIL: smoke run produced no $report to diff against $baseline" >&2
      exit 1
    fi
    if [ "${CHECK_PERF:-0}" = "1" ]; then
      "$BUILD_ABS/tools/axmlx_report" --diff "$baseline" "$report" \
        --regress-pct 30
    else
      "$BUILD_ABS/tools/axmlx_report" --diff "$baseline" "$report"
    fi
  done
)

step "forensics (sabotaged drill -> black box -> axmlx_report --forensics)"
FORENSICS_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$FORENSICS_DIR"' EXIT
AXMLX_FORENSICS_OUT="$FORENSICS_DIR" "$BUILD_ABS/tests/forensics_test"
dumps=("$FORENSICS_DIR"/*/forensics/forensic-*.json)
if [ ! -e "${dumps[0]}" ]; then
  echo "FAIL: forensics_test left no forensic-*.json under $FORENSICS_DIR" >&2
  exit 1
fi
"$BUILD_ABS/tools/axmlx_report" --forensics "${dumps[@]}"

step "trace (axmlx-trace-v1 export, --check partition gate, --critical-path)"
# The bench smoke run left Perfetto-loadable TRACE_*.json artifacts beside
# the BENCH reports; --check enforces the phase-partition invariant on each
# and --critical-path proves the dominator pipeline renders. The forensics
# dump from the previous stage round-trips through --trace into the same
# checkable format.
traces=("$SMOKE_DIR"/TRACE_*.json)
if [ ! -e "${traces[0]}" ]; then
  echo "FAIL: bench smoke run produced no TRACE_*.json artifacts" >&2
  exit 1
fi
"$BUILD_ABS/tools/axmlx_report" --check "${traces[@]}"
"$BUILD_ABS/tools/axmlx_report" --critical-path "${traces[@]}" > /dev/null
"$BUILD_ABS/tools/axmlx_report" --trace "$FORENSICS_DIR/trace.json" \
  "${dumps[0]}"
"$BUILD_ABS/tools/axmlx_report" --check "$FORENSICS_DIR/trace.json"

step "e2e deterministic counts (--txns 40 vs bench/baselines/e2e)"
# Same-seed runs of the end-to-end benchmark print one `deterministic` line
# per workload: decisions, messages and WAL bytes per transaction, median
# simulated ticks and the input fingerprint. A change that means to move
# them updates the baseline file and says why in CHANGES.md. run.py builds
# the benchmark on first use (into .bench_build/, or $CARGO_TARGET_DIR).
E2E_LINES="$BUILD_DIR/e2e-deterministic.txt"
: > "$E2E_LINES"
for workload in commit-small commit-large chaos-recover; do
  out="$(python3 e2e_bench/run.py --workload "$workload" --seed 7 \
    --seconds 60 --txns 40)"
  line="$(printf '%s\n' "$out" | grep '^deterministic ' || true)"
  if [ -z "$line" ]; then
    echo "FAIL: e2e_bench $workload printed no deterministic line" >&2
    exit 1
  fi
  echo "$workload $line" >> "$E2E_LINES"
done
diff -u bench/baselines/e2e/deterministic.txt "$E2E_LINES"

step "sanitizer build (-DAXMLX_SANITIZE=ON) + fault-labeled suites"
SAN_DIR="$BUILD_DIR-asan"
cmake -B "$SAN_DIR" -S . -DAXMLX_WERROR=ON -DAXMLX_SANITIZE=ON
cmake --build "$SAN_DIR" -j "$JOBS" \
  --target fault_injection_test fault_drill_test forensics_test \
           replica_sync_test
ctest --test-dir "$SAN_DIR" -L fault --output-on-failure -j "$JOBS"

step "sanitizer call catalog (ctest -L catalog)"
# The call catalog keeps node ids across document mutations and trusts them
# while the call-shape generation stands (DESIGN.md §8): a stale id would
# read a recycled slab slot, which ASan reports here.
cmake --build "$SAN_DIR" -j "$JOBS" --target discovery_diff_test
ctest --test-dir "$SAN_DIR" -L catalog --output-on-failure -j "$JOBS"

step "sanitizer payload path (ctest -L payload)"
# Operation payloads are parsed straight into live, watched, replicated
# documents (DESIGN.md §8): a rejected payload that left a node behind, or an
# id handed out twice, would read a recycled slab slot, which ASan reports
# here.
cmake --build "$SAN_DIR" -j "$JOBS" --target payload_diff_test parse_diff_test
ctest --test-dir "$SAN_DIR" -L payload --output-on-failure -j "$JOBS"

step "sanitizer journal path (ctest -L journal)"
# Peers journal path-addressed effect records and stores apply them to
# their own copies, seeded from text with other node ids (DESIGN.md §5d): a
# path resolved to the wrong node would read a recycled slab slot, which
# ASan reports here.
cmake --build "$SAN_DIR" -j "$JOBS" --target journal_test
ctest --test-dir "$SAN_DIR" -L journal --output-on-failure -j "$JOBS"

step "sanitizer parser robustness (ctest -L robustness)"
# Malformed and hostile input at every parse boundary (XML, query, chain),
# including nesting far past the parsers' depth limits: a parser that
# recursed per level would overflow the stack here.
cmake --build "$SAN_DIR" -j "$JOBS" --target robustness_test
ctest --test-dir "$SAN_DIR" -L robustness --output-on-failure -j "$JOBS"

step "OK: all gates passed"
