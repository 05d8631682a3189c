// Experiment E-F — fault matrix: atomicity under injected overlay faults.
//
// Sweeps the fault-injection layer across message drop/duplication rates,
// a repeating partition schedule, and periodic crash-restarts (WAL-backed
// recovery), running the chained peer-independent protocol on a uniform
// service tree. The headline column is `violations`: peers whose document
// state disagrees with the transaction decisions. The paper's atomicity
// argument (§3.2-§3.3) predicts this is zero in every cell — the process
// exits non-zero if any cell disagrees, so CI can gate on it. Two depth-2
// cells (13 workers, keepalive on, crashes plus partitions or duplicates)
// run in the full matrix and under --smoke.
//
// A second section checks the tick-delivery optimisation: a message flood
// through peers that never opted into ticks must record tick_calls == 0
// (delivery cost no longer scales with overlay size).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metric_names.h"
#include "obs/timeline.h"
#include "overlay/network.h"
#include "repo/fault_drill.h"

namespace {

using axmlx::bench::Fmt;
using axmlx::bench::Table;
using axmlx::repo::FaultDrill;
using axmlx::repo::FaultDrillOptions;
using axmlx::repo::FaultDrillReport;

int total_violations = 0;
bool tick_check_failed = false;

FaultDrillOptions MatrixOptions(const std::string& label, uint64_t seed) {
  FaultDrillOptions options;
  options.seed = seed;
  options.storage_dir = "/tmp/axmlx_bench_fault_" + label;
  options.depth = 1;
  options.fanout = 3;
  options.transactions = 12;
  return options;
}

void AddMatrixRow(Table* table, const std::string& label,
                  const FaultDrillOptions& options) {
  FaultDrill drill(options);
  auto report = drill.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "fault drill '%s' failed: %s\n", label.c_str(),
                 report.status().ToString().c_str());
    ++total_violations;
    return;
  }
  total_violations += report->violations;
  table->AddRow({label, Fmt(options.drop_rate), Fmt(options.dup_rate),
                 options.partition_every > 0 ? "yes" : "no",
                 options.crash_every > 0 ? "yes" : "no",
                 Fmt(report->committed), Fmt(report->aborted),
                 Fmt(report->undecided),
                 Fmt(report->faults.dropped + report->faults.duplicated +
                     report->faults.partition_blocked),
                 Fmt(report->restarts), Fmt(report->wal_replayed_ops),
                 Fmt(report->violations)});
  for (const std::string& detail : report->violation_details) {
    std::fprintf(stderr, "VIOLATION [%s]: %s\n", label.c_str(),
                 detail.c_str());
  }
}

void RunMatrix() {
  std::printf(
      "Experiment E-F: atomicity under injected faults (chained protocol, "
      "peer-independent commit, replicas, reliable control channel).\n"
      "Uniform tree depth 1 / fanout 3; 12 transactions per cell.\n\n");

  Table table({"cell", "drop", "dup", "partition", "crash", "commit",
               "abort", "undecided", "faults", "restarts", "wal_ops",
               "violations"});

  const double drops[] = {0.0, 0.05, 0.2};
  const double dups[] = {0.0, 0.1};
  int cell = 0;
  for (double drop : drops) {
    for (double dup : dups) {
      std::string label = "d" + std::to_string(static_cast<int>(drop * 100)) +
                          "u" + std::to_string(static_cast<int>(dup * 100));
      FaultDrillOptions options = MatrixOptions(label, 9000 + cell++);
      options.drop_rate = drop;
      options.dup_rate = dup;
      options.delay_max = 3;
      AddMatrixRow(&table, label, options);
    }
  }

  {
    FaultDrillOptions options = MatrixOptions("partition", 9100);
    options.partition_every = 2;
    AddMatrixRow(&table, "partition", options);
  }
  {
    FaultDrillOptions options = MatrixOptions("crash", 9200);
    options.crash_every = 2;
    AddMatrixRow(&table, "crash-restart", options);
  }
  {
    FaultDrillOptions options = MatrixOptions("chaos", 9300);
    options.drop_rate = 0.05;
    options.dup_rate = 0.05;
    options.delay_max = 3;
    options.partition_every = 3;
    options.crash_every = 4;
    AddMatrixRow(&table, "chaos", options);
  }

  table.Print();
  std::printf(
      "\nShape check (paper): `violations` is 0 in every cell — drops and "
      "partitions abort cleanly via timeout + compensation, duplicates are "
      "absorbed by at-most-once delivery, and crashed peers rejoin from "
      "their WAL without tearing committed state.\n\n");
}

/// Depth-2 cells: 13 workers (fanout 3) with keepalive on, crash-restarts
/// every 4th transaction, plus partitions or duplicates. Drops x crashes is
/// left out: abort propagation across a crash is a separate open defect.
/// Runs under --smoke too, with fewer transactions.
void RunDepthTwoCells(bool smoke) {
  std::printf(
      "Depth-2 cells: uniform tree depth 2 / fanout 3, keepalive on, crash "
      "every 4th txn; %d transactions per cell.\n\n",
      smoke ? 8 : 16);
  Table table({"cell", "drop", "dup", "partition", "crash", "commit",
               "abort", "undecided", "faults", "restarts", "wal_ops",
               "violations"});
  struct Cell {
    const char* label;
    int partition_every;
    double dup_rate;
  };
  const Cell cells[] = {{"d2-partition-crash", 3, 0.0},
                        {"d2-dup-crash", 0, 0.05}};
  uint64_t seed = 9400;
  for (const Cell& cell : cells) {
    FaultDrillOptions options = MatrixOptions(cell.label, seed++);
    options.depth = 2;
    options.transactions = smoke ? 8 : 16;
    options.keepalive_interval = 25;
    options.partition_every = cell.partition_every;
    options.dup_rate = cell.dup_rate;
    options.crash_every = 4;
    AddMatrixRow(&table, cell.label, options);
  }
  table.Print();
  std::printf("\n");
}

/// A peer that never opts into ticks: delivering to it must not trigger
/// periodic work anywhere.
class FloodSink : public axmlx::overlay::PeerNode {
 public:
  explicit FloodSink(axmlx::overlay::PeerId id)
      : PeerNode(std::move(id), /*super_peer=*/false) {}
  void OnMessage(const axmlx::overlay::Message&,
                 axmlx::overlay::Network*) override {
    ++received;
  }
  int64_t received = 0;
};

void RunTickCheck() {
  constexpr int kPeers = 64;
  constexpr int kMessages = 200000;

  axmlx::overlay::Network net(7);
  std::vector<FloodSink*> sinks;
  for (int i = 0; i < kPeers; ++i) {
    auto sink = std::make_unique<FloodSink>("N" + std::to_string(i));
    sinks.push_back(sink.get());
    net.AddPeer(std::move(sink));
  }

  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMessages; ++i) {
    axmlx::overlay::Message m;
    m.from = "N" + std::to_string(i % kPeers);
    m.to = "N" + std::to_string((i + 1) % kPeers);
    m.type = "FLOOD";
    (void)net.Send(std::move(m));
    if (i % 1024 == 0) net.RunUntilQuiescent();
  }
  net.RunUntilQuiescent();
  auto elapsed = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();

  int64_t delivered = 0;
  for (const FloodSink* sink : sinks) delivered += sink->received;
  const int64_t tick_calls = net.stats().tick_calls;

  std::printf(
      "Tick opt-in check: %d messages across %d peers delivered in %.3fs "
      "(%.0f msg/s); tick_calls = %lld (expected 0: nobody subscribed).\n",
      kMessages, kPeers, elapsed,
      static_cast<double>(delivered) / elapsed,
      static_cast<long long>(tick_calls));
  if (tick_calls != 0) {
    std::fprintf(stderr,
                 "FAIL: delivery ticked %lld times with no subscribers — "
                 "per-delivery cost scales with overlay size again.\n",
                 static_cast<long long>(tick_calls));
    tick_check_failed = true;
  }
}

/// Machine-readable report: one drop+dup drill cell — wall latency, verdict
/// counters, and the drill's own txn-duration histogram (simulation ticks)
/// pulled straight from its metrics registry.
void WriteReport(bool smoke) {
  axmlx::bench::JsonReport report("fault_matrix", smoke);
  uint64_t seed = 9700;
  axmlx::bench::MeasureThroughput(
      &report, "drill_latency_us", smoke ? 2 : 5, [&] {
        FaultDrillOptions options = MatrixOptions("report", seed++);
        options.transactions = smoke ? 4 : 12;
        options.drop_rate = 0.05;
        options.dup_rate = 0.1;
        options.delay_max = 3;
        FaultDrill drill(options);
        (void)drill.Run();
      });
  FaultDrillOptions options = MatrixOptions("report", 9800);
  options.transactions = smoke ? 4 : 12;
  options.drop_rate = 0.05;
  options.dup_rate = 0.1;
  options.delay_max = 3;
  FaultDrill drill(options);
  auto drill_report = drill.Run();
  if (drill_report.ok()) {
    report.AddCounter("committed", drill_report->committed);
    report.AddCounter("aborted", drill_report->aborted);
    report.AddCounter("undecided", drill_report->undecided);
    report.AddCounter("violations", drill_report->violations);
    report.AddCounter("faults_injected",
                      drill_report->faults.dropped +
                          drill_report->faults.duplicated);
    const axmlx::obs::MetricsSnapshot metrics = drill.metrics().Snapshot();
    auto hist = metrics.histograms.find("drill.txn_duration_ticks");
    if (hist != metrics.histograms.end()) {
      report.AddHistogram("txn_duration_ticks", hist->second);
    }
    // Per-phase critical-path breakdown (simulation ticks): where the
    // drill's end-to-end latency actually went.
    auto total = metrics.histograms.find(axmlx::obs::kMetricTxnLatencyTotal);
    if (total != metrics.histograms.end()) {
      report.AddHistogram(axmlx::obs::kMetricTxnLatencyTotal, total->second);
    }
    for (int i = 0; i < axmlx::obs::kPhaseCount; ++i) {
      auto phase = metrics.histograms.find(axmlx::obs::PhaseMetricName(i));
      if (phase != metrics.histograms.end()) {
        report.AddHistogram(axmlx::obs::PhaseMetricName(i), phase->second);
      }
    }
    // Perfetto-loadable timeline of the same run, for axmlx_report
    // --critical-path / --check.
    std::ofstream trace("TRACE_fault_matrix.json",
                        std::ios::binary | std::ios::trunc);
    if (trace) trace << drill.repo().BuildTrace();
  }
  (void)report.Write();
}

void BM_FaultDrillDropDup(benchmark::State& state) {
  int iter = 0;
  for (auto _ : state) {
    FaultDrillOptions options =
        MatrixOptions("bm", 9500 + static_cast<uint64_t>(iter++));
    options.transactions = 4;
    options.drop_rate = 0.05;
    options.dup_rate = 0.1;
    FaultDrill drill(options);
    auto report = drill.Run();
    if (report.ok()) benchmark::DoNotOptimize(report->committed);
  }
}
BENCHMARK(BM_FaultDrillDropDup)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axmlx::bench::StripSmokeFlag(&argc, argv);
  if (smoke) {
    RunDepthTwoCells(true);
    WriteReport(true);
    if (total_violations > 0) {
      std::fprintf(stderr, "\nFAIL: %d atomicity violation(s) in the "
                   "depth-2 cells.\n", total_violations);
      return 1;
    }
    return 0;
  }
  RunMatrix();
  RunDepthTwoCells(false);
  RunTickCheck();
  WriteReport(false);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (total_violations > 0) {
    std::fprintf(stderr, "\nFAIL: %d atomicity violation(s) in the fault "
                 "matrix.\n", total_violations);
    return 1;
  }
  if (tick_check_failed) return 1;
  std::printf("\nPASS: zero atomicity violations across the fault matrix; "
              "ticks stay opt-in.\n");
  return 0;
}
