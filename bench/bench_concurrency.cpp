// Concurrency scaling — MVCC snapshot transactions on one peer.
//
// PR "concurrent transactions" added comp::ConcurrentExecutor: per-txn MVCC
// snapshots over the document's version chains, a write-write conflict
// table at node granularity, and conflict resolution through the paper's
// compensation machinery (abort the loser, compensate, retry). This bench
// measures how committed-operation throughput scales as 1..8 transactions
// interleave over the same document, for two workload shapes:
//
//   disjoint  — every transaction writes its own section: conflicts are
//               impossible, so the curve isolates pure MVCC overhead
//               (version records, snapshot-aware reads, conflict checks);
//   contended — every transaction's first write hits section 0: losers
//               abort + compensate + retry, so the curve shows the cost of
//               optimistic conflict resolution under pressure.
//
// Expected shape: disjoint throughput stays roughly flat with N (the
// executor interleaves but never wastes work); contended throughput decays
// with N while conflicts/retries climb — the price of lock-freedom.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "compensation/concurrent.h"
#include "obs/metric_names.h"
#include "obs/timeline.h"
#include "ops/operation.h"
#include "xml/builder.h"
#include "xml/document.h"

namespace {

using axmlx::bench::Fmt;
using axmlx::bench::Table;
using axmlx::comp::ConcurrentExecutor;
using axmlx::comp::TxnHandle;
using axmlx::xml::Document;

constexpr int kSections = 16;

std::string SectionLocation(int i) {
  return "Select s from s in inventory/section where s/name = s" +
         std::to_string(i);
}

/// `<inventory>` with kSections named sections, the contention targets.
std::unique_ptr<Document> MakeInventory() {
  auto doc = std::make_unique<Document>("inventory");
  for (int i = 0; i < kSections; ++i) {
    axmlx::xml::NodeId sec =
        axmlx::xml::AddElement(doc.get(), doc->root(), "section");
    axmlx::xml::AddTextElement(doc.get(), sec, "name",
                               "s" + std::to_string(i));
  }
  return doc;
}

struct RoundResult {
  int64_t committed_ops = 0;
  int64_t conflicts = 0;
  int64_t retries = 0;
};

/// Runs `txns` transactions of `ops_per_txn` inserts each, interleaved
/// round-robin `concurrency` at a time. `contended` sends every txn's
/// first op to section 0; otherwise each txn stays in its own section.
/// Conflict losers are retried from Begin (the caller-driven protocol).
RoundResult RunRound(ConcurrentExecutor* exec, int txns, int ops_per_txn,
                     int concurrency, bool contended) {
  RoundResult out;
  int launched = 0;
  struct Live {
    TxnHandle handle = 0;
    int txn_index = 0;
    int next_op = 0;
    bool need_begin = false;
  };
  std::vector<Live> live;
  auto launch = [&](int index) {
    live.push_back({exec->Begin("t" + std::to_string(index)), index, 0, false});
  };
  while (launched < concurrency && launched < txns) launch(launched++);
  size_t turn = 0;
  while (!live.empty()) {
    Live& t = live[turn % live.size()];
    // A conflict loser re-snapshots immediately before its next write (not
    // at the moment it lost): taking the snapshot early would let every
    // other loser's insert+rollback land in between and re-trip the
    // version check — a deterministic livelock under round-robin
    // scheduling. Fresh-snapshot-then-write only conflicts with writers
    // that are genuinely active, which guarantees progress.
    if (t.need_begin) {
      t.handle = exec->Begin("t" + std::to_string(t.txn_index) + "r");
      t.need_begin = false;
    }
    const int section =
        contended && t.next_op == 0 ? 0 : 1 + t.txn_index % (kSections - 1);
    auto r = exec->Execute(
        t.handle, axmlx::ops::MakeInsert(SectionLocation(section),
                                         "<entry>e</entry>"));
    if (!r.ok()) {
      // Write-write conflict: the executor already compensated us out;
      // start over at our next turn.
      out.conflicts++;
      out.retries++;
      exec->NoteRetry();
      t.need_begin = true;
      t.next_op = 0;
      ++turn;
      continue;
    }
    if (++t.next_op == ops_per_txn) {
      (void)exec->Commit(t.handle);
      out.committed_ops += ops_per_txn;
      live[turn % live.size()] = live.back();
      live.pop_back();
      if (launched < txns) launch(launched++);
    }
    ++turn;
  }
  return out;
}

double OpsPerSec(int64_t ops, double total_us) {
  return total_us > 0 ? ops * 1e6 / total_us : 0;
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

void PrintExperiment() {
  std::printf(
      "Concurrency scaling: MVCC snapshot transactions interleaved over one "
      "document (DESIGN.md \xC2\xA7" "10)\n\n");
  for (bool contended : {false, true}) {
    Table table({"workload", "interleaved txns", "committed ops/sec",
                 "conflicts", "retries"});
    for (int n : {1, 2, 4, 8}) {
      auto doc = MakeInventory();
      ConcurrentExecutor exec(doc.get(), nullptr);
      RoundResult result;
      const int txns = 64;
      double us = TimeUs(
          [&] { result = RunRound(&exec, txns, 4, n, contended); });
      table.AddRow({contended ? "contended" : "disjoint", Fmt(n),
                    Fmt(OpsPerSec(result.committed_ops, us)),
                    Fmt(result.conflicts), Fmt(result.retries)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Shape check: disjoint stays flat as N grows (MVCC bookkeeping only); "
      "contended decays as losers pay abort+compensate+retry.\n\n");
}

void WriteReport(bool smoke) {
  axmlx::bench::JsonReport report("concurrency", smoke);
  const int txns = smoke ? 8 : 64;
  const int rounds = smoke ? 3 : 20;
  {
    auto doc = MakeInventory();
    ConcurrentExecutor exec(doc.get(), nullptr);
    // Phase timeline over the contended round: every Begin/Execute/conflict
    // lands in the kPhase* accounting, so the report carries a per-phase
    // critical-path breakdown (logical op ticks) next to the wall numbers.
    axmlx::obs::Timeline timeline;
    timeline.AttachMetrics(exec.metrics());
    exec.AttachTimeline(&timeline);
    int64_t committed = 0;
    const double wall_s = axmlx::bench::MeasureThroughput(
        &report, "round_latency_us", rounds, [&] {
          committed += RunRound(&exec, txns, 4, 4, true).committed_ops;
        });
    // MeasureThroughput's default rate counts *rounds* per second (each
    // round commits txns*4 ops), which is what the old report published as
    // "ops_per_sec" — off by three orders of magnitude from the E13
    // narrative. Overwrite with the committed-operation rate per wall
    // second.
    report.SetWallOpsPerSec(wall_s > 0 ? committed / wall_s : 0);
    report.AddCounter("txn.committed_ops", committed);
    auto snap = exec.metrics()->Snapshot();
    for (const char* name :
         {"txn.snapshots_taken", "txn.snapshot_ops", "txn.conflicts_detected",
          "txn.conflicts_aborted", "txn.conflicts_retried",
          "txn.mvcc_commits"}) {
      report.AddCounter(name, snap.counters.at(name));
    }
    report.AddCounter("doc.version_records_live",
                      static_cast<int64_t>(doc->VersionRecordCount()));
    auto total = snap.histograms.find(axmlx::obs::kMetricTxnLatencyTotal);
    if (total != snap.histograms.end()) {
      report.AddHistogram(axmlx::obs::kMetricTxnLatencyTotal, total->second);
    }
    for (int i = 0; i < axmlx::obs::kPhaseCount; ++i) {
      auto phase = snap.histograms.find(axmlx::obs::PhaseMetricName(i));
      if (phase != snap.histograms.end()) {
        report.AddHistogram(axmlx::obs::PhaseMetricName(i), phase->second);
      }
    }
    // Timeline-only trace (no overlay in this bench): txn tracks + phase
    // slices, loadable in Perfetto and checkable by axmlx_report.
    std::ofstream trace("TRACE_concurrency.json",
                        std::ios::binary | std::ios::trunc);
    if (trace) {
      trace << axmlx::obs::BuildTraceJson(nullptr, nullptr, &timeline);
    }
  }
  {
    // Disjoint control round: the conflict-free scaling point.
    auto doc = MakeInventory();
    ConcurrentExecutor exec(doc.get(), nullptr);
    RoundResult disjoint = RunRound(&exec, txns, 4, 4, false);
    report.AddCounter("txn.disjoint_committed_ops", disjoint.committed_ops);
    report.AddCounter("txn.disjoint_conflicts", disjoint.conflicts);
  }
  (void)report.Write();
}

void BM_Interleaved(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool contended = state.range(1) != 0;
  for (auto _ : state) {
    auto doc = MakeInventory();
    ConcurrentExecutor exec(doc.get(), nullptr);
    benchmark::DoNotOptimize(RunRound(&exec, 16, 4, n, contended));
  }
  state.SetLabel(contended ? "contended" : "disjoint");
}
BENCHMARK(BM_Interleaved)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axmlx::bench::StripSmokeFlag(&argc, argv);
  if (!smoke) PrintExperiment();
  WriteReport(smoke);
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
