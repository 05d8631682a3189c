// Flight-recorder overhead — the always-on observability budget.
//
// The flight recorder stamps a fixed-size event into a preallocated ring on
// every hot-path action (WAL append/flush, operation execution, message
// send/receive), so it must be cheap enough to leave on everywhere. This
// bench drives the two hottest instrumented paths — DurableStore
// transactions (WAL + executor events) and indexed query evaluation
// (OP_EXEC events) — with the recorder attached and detached, and enforces
// the budget: recorder-on throughput within kBudgetPct of recorder-off.
//
// The overhead is the median of the on/off rate ratios of kPairs
// back-to-back pairs, each side first in half of them: load that slows
// both runs of a pair cancels in its ratio, and the median drops pairs a
// burst hit on one side only. The binary exits 1 when either workload
// exceeds the budget, so check.sh can gate on it, and writes
// BENCH_obs_overhead.json with both rates plus the overhead percentages
// for the baseline diff pipeline.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "obs/flight_recorder.h"
#include "obs/timeline.h"
#include "ops/executor.h"
#include "ops/operation.h"
#include "query/eval.h"
#include "storage/durable_store.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace {

using axmlx::bench::Fmt;
using axmlx::bench::Table;
using axmlx::storage::DurableStore;
using axmlx::storage::FlushPolicy;
using axmlx::xml::Document;

constexpr double kBudgetPct = 5.0;  ///< Max allowed recorder-on slowdown.
/// Off/on pairs per path: even, so each side runs first in half of them.
constexpr int kPairs = 12;

int g_dir_counter = 0;

std::string FreshDir() {
  std::string dir =
      "/tmp/axmlx_bench_obs_overhead_" + std::to_string(g_dir_counter++);
  std::string cleanup = "rm -rf " + dir;
  (void)std::system(cleanup.c_str());
  return dir;
}

template <typename Fn>
double TimeUs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             t1 - t0)
      .count();
}

double OpsPerSec(int iters, double total_us) {
  return total_us > 0 ? iters * 1e6 / total_us : 0;
}

/// Storage hot path: `txns` small committed transactions (4 inserts each)
/// against a fresh store, instrumentation attached or not. The "on" config
/// is the full shipping set — flight recorder plus phase timeline (per-txn
/// window + WAL_APPEND/FLUSH_WAIT markers), so the budget covers
/// critical-path accounting too. Returns txns/sec.
double StorageRate(bool with_recorder, int txns) {
  DurableStore store(FreshDir(), nullptr, FlushPolicy::OnResolve());
  if (!store.Open().ok()) return 0;
  (void)store.CreateDocument("<Store><log/></Store>");
  axmlx::obs::FlightRecorder recorder;
  axmlx::obs::Timeline timeline;
  if (with_recorder) {
    store.AttachRecorder(&recorder);
    store.AttachTimeline(&timeline);
  }
  double us = TimeUs([&] {
    for (int t = 0; t < txns; ++t) {
      std::string txn = "T" + std::to_string(t);
      if (with_recorder) timeline.BeginTxn(txn, timeline.now());
      (void)store.Begin(txn);
      for (int i = 0; i < 4; ++i) {
        (void)store.Execute(
            txn, "Store",
            axmlx::ops::MakeInsert("Select d from d in Store//log",
                                   "<entry>payload</entry>"));
      }
      (void)store.Commit(txn);
      if (with_recorder) timeline.EndTxn(txn, timeline.now());
    }
  });
  return OpsPerSec(txns, us);
}

/// Query hot path: `iters` indexed-evaluator queries over a ~4k-node
/// document, recorder attached or not. Returns queries/sec.
double QueryRate(bool with_recorder, int iters) {
  Document doc("Store");
  for (int s = 0; s < 32; ++s) {
    axmlx::xml::NodeId sec =
        axmlx::xml::AddElement(&doc, doc.root(), "section");
    for (int i = 0; i < 32; ++i) {
      (void)axmlx::xml::AddTextElement(&doc, sec, "entry", "payload");
    }
  }
  axmlx::ops::Executor executor(&doc, /*invoker=*/nullptr);
  axmlx::query::EvalContext ctx;
  executor.SetEvalContext(&ctx);
  axmlx::obs::FlightRecorder recorder;
  if (with_recorder) executor.SetRecorder(&recorder);
  axmlx::ops::Operation op =
      axmlx::ops::MakeQuery("Select e from e in Store//entry");
  double us = TimeUs([&] {
    for (int i = 0; i < iters; ++i) {
      (void)executor.Execute(op);
    }
  });
  return OpsPerSec(iters, us);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One path's measurement: the median rate of each side, and the overhead
/// from the median of the per-pair on/off ratios.
struct PairedRates {
  double off = 0;
  double on = 0;
  double overhead_pct = 0;
};

/// kPairs off/on pairs of `rate`; the recorder-off run goes first in the
/// even pairs and second in the odd ones.
template <typename RateFn>
PairedRates MeasurePairs(RateFn&& rate, int iters) {
  std::vector<double> offs;
  std::vector<double> ons;
  std::vector<double> ratios;
  for (int p = 0; p < kPairs; ++p) {
    const bool off_first = p % 2 == 0;
    const double first = rate(/*with_recorder=*/!off_first, iters);
    const double second = rate(/*with_recorder=*/off_first, iters);
    const double off = off_first ? first : second;
    const double on = off_first ? second : first;
    offs.push_back(off);
    ons.push_back(on);
    ratios.push_back(off > 0 ? on / off : 1);
  }
  PairedRates out;
  out.off = Median(offs);
  out.on = Median(ons);
  // Measured faster with the recorder is noise, not a win.
  out.overhead_pct = std::max(0.0, (1 - Median(ratios)) * 100.0);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axmlx::bench::StripSmokeFlag(&argc, argv);
  const int storage_txns = smoke ? 80 : 600;
  const int query_iters = smoke ? 300 : 3000;

  const PairedRates storage = MeasurePairs(StorageRate, storage_txns);
  const PairedRates query = MeasurePairs(QueryRate, query_iters);

  std::printf(
      "Flight-recorder overhead: instrumented hot paths with the recorder "
      "attached vs detached (budget %.1f%%)\n\n",
      kBudgetPct);
  Table table({"hot path", "iters", "off ops/sec", "on ops/sec", "overhead"});
  table.AddRow({"storage txn", Fmt(storage_txns), Fmt(storage.off),
                Fmt(storage.on), Fmt(storage.overhead_pct) + "%"});
  table.AddRow({"indexed query", Fmt(query_iters), Fmt(query.off),
                Fmt(query.on), Fmt(query.overhead_pct) + "%"});
  table.Print();

  axmlx::bench::JsonReport report("obs_overhead", smoke);
  {
    // The recorder-on storage path doubles as the report's throughput
    // metric, so baseline diffs track the instrumented (shipping) config.
    DurableStore store(FreshDir(), nullptr, FlushPolicy::OnResolve());
    (void)store.Open();
    (void)store.CreateDocument("<Store><log/></Store>");
    axmlx::obs::FlightRecorder recorder;
    store.AttachRecorder(&recorder);
    int t = 0;
    axmlx::bench::MeasureThroughput(
        &report, "storage_txn_latency_us", smoke ? 40 : 400, [&] {
          std::string txn = "T" + std::to_string(t++);
          (void)store.Begin(txn);
          for (int i = 0; i < 4; ++i) {
            (void)store.Execute(
                txn, "Store",
                axmlx::ops::MakeInsert("Select d from d in Store//log",
                                       "<entry>payload</entry>"));
          }
          (void)store.Commit(txn);
        });
  }
  report.AddCounter("storage.ops_per_sec_off",
                    static_cast<int64_t>(storage.off));
  report.AddCounter("storage.ops_per_sec_on",
                    static_cast<int64_t>(storage.on));
  report.AddCounter("storage.overhead_pct_x100",
                    static_cast<int64_t>(storage.overhead_pct * 100));
  report.AddCounter("query.ops_per_sec_off", static_cast<int64_t>(query.off));
  report.AddCounter("query.ops_per_sec_on", static_cast<int64_t>(query.on));
  report.AddCounter("query.overhead_pct_x100",
                    static_cast<int64_t>(query.overhead_pct * 100));
  report.AddCounter("budget_pct_x100", static_cast<int64_t>(kBudgetPct * 100));
  (void)report.Write();

  if (storage.overhead_pct > kBudgetPct || query.overhead_pct > kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: flight-recorder overhead exceeds %.1f%% budget "
                 "(storage %.2f%%, query %.2f%%)\n",
                 kBudgetPct, storage.overhead_pct, query.overhead_pct);
    return 1;
  }
  std::printf("\nBudget check: OK (storage %.2f%%, query %.2f%%, budget "
              "%.1f%%)\n",
              storage.overhead_pct, query.overhead_pct, kBudgetPct);
  return 0;
}
