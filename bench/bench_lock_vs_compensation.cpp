// Experiment E8 — lock-based concurrency control vs the compensation model
// (§1, §2).
//
// The paper dismisses lock-based protocols for AXML because service calls
// make operations long ("in hours") and documents "active": locks held for
// the call duration serialize everything. This bench sweeps the service
// duration and contention and compares an XPath-locking baseline (strict
// 2PL over paths, after [5], including its P locks) against the paper's
// compensation model on the same generated workload.
//
// Expected shape: locking latency and denials explode as service duration
// grows; compensation latency stays equal to the service duration, at the
// price of compensating the (rare) faulted transactions. The crossover is
// immediate once calls are long.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "baseline/lock_sim.h"
#include "bench/bench_util.h"
#include "repo/axml_repository.h"
#include "repo/scenarios.h"

namespace {

using axmlx::baseline::RunCompensationSimulation;
using axmlx::baseline::RunLockingSimulation;
using axmlx::baseline::SimResult;
using axmlx::baseline::WorkloadConfig;
using axmlx::bench::Fmt;
using axmlx::bench::Table;

void PrintExperiment() {
  std::printf(
      "E8: XPath locking (strict 2PL, after [5]) vs compensation, 300 txns, "
      "3 path ops each, 50%% writes, hot-spot contention\n\n");
  Table table({"service duration", "model", "committed", "aborted",
               "avg latency", "throughput /1k ticks", "lock denials",
               "comp. ops"});
  for (int64_t duration : {1, 10, 100, 1000}) {
    WorkloadConfig config;
    config.num_txns = 300;
    config.ops_per_txn = 3;
    config.hot_fraction = 0.4;
    config.write_fraction = 0.5;
    config.service_duration = duration;
    config.arrival_gap = 2;
    config.fault_probability = 0.05;  // compensation model pays for faults
    SimResult lock = RunLockingSimulation(config);
    SimResult comp = RunCompensationSimulation(config);
    table.AddRow({Fmt(static_cast<long long>(duration)), "locking",
                  Fmt(lock.committed), Fmt(lock.aborted),
                  Fmt(lock.avg_latency), Fmt(lock.throughput),
                  Fmt(lock.lock_denials), "-"});
    table.AddRow({Fmt(static_cast<long long>(duration)), "compensation",
                  Fmt(comp.committed), Fmt(comp.aborted),
                  Fmt(comp.avg_latency), Fmt(comp.throughput), "-",
                  Fmt(comp.compensation_ops)});
  }
  table.Print();

  std::printf("\nConcurrency sweep at duration=100:\n\n");
  Table table2({"arrival gap (load)", "model", "avg latency",
                "throughput /1k ticks", "aborted"});
  for (int64_t gap : {1, 5, 25, 125}) {
    WorkloadConfig config;
    config.num_txns = 300;
    config.service_duration = 100;
    config.arrival_gap = gap;
    config.hot_fraction = 0.4;
    config.fault_probability = 0.05;
    SimResult lock = RunLockingSimulation(config);
    SimResult comp = RunCompensationSimulation(config);
    table2.AddRow({Fmt(static_cast<long long>(gap)), "locking",
                   Fmt(lock.avg_latency), Fmt(lock.throughput),
                   Fmt(lock.aborted)});
    table2.AddRow({Fmt(static_cast<long long>(gap)), "compensation",
                   Fmt(comp.avg_latency), Fmt(comp.throughput),
                   Fmt(comp.aborted)});
  }
  table2.Print();
  std::printf(
      "\nShape check (paper): compensation wins once service calls are "
      "long; its latency equals the service time regardless of contention, "
      "while locking queues (and times out) on hot paths — why \"lock-based "
      "protocols are not well suited for AXML systems\" (§2).\n\n");
}

/// Same comparison on *real transactional peers*: one peer hosts a hot
/// document; N concurrent writer transactions arrive together. Under the
/// XPath-locking option, later writers fault with LockConflict and abort;
/// the compensation-only peer interleaves them all.
struct PeerRunResult {
  int committed = 0;
  int aborted = 0;
  long long makespan = 0;
};

PeerRunResult RunOnRealPeers(bool use_locking, int n_txns,
                             axmlx::overlay::Tick duration) {
  axmlx::repo::AxmlRepository repo(3);
  axmlx::repo::AxmlRepository::PeerConfig config;
  config.id = "P";
  config.protocol = axmlx::repo::AxmlRepository::Protocol::kRecovering;
  config.options.use_locking = use_locking;
  (void)repo.AddPeer(config);
  (void)repo.HostDocument(
      "P", "<DataP><store><item id=\"1\">v</item></store><log/></DataP>");
  axmlx::service::ServiceDefinition writer;
  writer.name = "Write";
  writer.document = "DataP";
  writer.ops.push_back(axmlx::ops::MakeReplace(
      "Select s/item from s in DataP//store where s/item/@id = 1",
      "<item id=\"1\">updated</item>"));
  writer.duration = duration;
  (void)repo.HostService("P", std::move(writer));

  PeerRunResult result;
  axmlx::txn::AxmlPeer* origin = repo.FindPeer("P");
  for (int i = 0; i < n_txns; ++i) {
    (void)origin->Submit(&repo.network(), "T" + std::to_string(i), "Write",
                         {}, [&result](const std::string&, axmlx::Status s) {
                           if (s.ok()) {
                             ++result.committed;
                           } else {
                             ++result.aborted;
                           }
                         });
  }
  repo.network().RunUntilQuiescent();
  result.makespan = repo.network().now();
  return result;
}

void PrintRealPeerExperiment() {
  std::printf(
      "Same comparison on real transactional peers (one hot document, "
      "concurrent writers arriving together):\n\n");
  Table table({"writers", "service duration", "model", "committed",
               "aborted (LockConflict)"});
  for (int n : {2, 8, 32}) {
    for (axmlx::overlay::Tick duration : {5, 50}) {
      for (bool locking : {true, false}) {
        PeerRunResult r = RunOnRealPeers(locking, n, duration);
        table.AddRow({Fmt(n), Fmt(static_cast<long long>(duration)),
                      locking ? "locking" : "compensation", Fmt(r.committed),
                      Fmt(r.aborted)});
      }
    }
  }
  table.Print();
  std::printf(
      "\nShape check: under locking only the first writer proceeds and the "
      "rest abort on conflict, independent of duration; the compensation "
      "model commits all of them.\n\n");
}

/// Machine-readable report: compensation-model simulation latency at
/// duration=100 plus committed/aborted for both models on that workload.
void WriteReport(bool smoke) {
  axmlx::bench::JsonReport report("lock_vs_compensation", smoke);
  WorkloadConfig config;
  config.num_txns = smoke ? 50 : 300;
  config.ops_per_txn = 3;
  config.hot_fraction = 0.4;
  config.write_fraction = 0.5;
  config.service_duration = 100;
  config.arrival_gap = 2;
  config.fault_probability = 0.05;
  axmlx::bench::MeasureThroughput(
      &report, "comp_sim_latency_us", smoke ? 3 : 10,
      [&] { (void)RunCompensationSimulation(config); });
  SimResult lock = RunLockingSimulation(config);
  report.AddCounter("locking.committed", lock.committed);
  report.AddCounter("locking.aborted", lock.aborted);
  report.AddCounter("locking.lock_denials", lock.lock_denials);
  SimResult comp = RunCompensationSimulation(config);
  report.AddCounter("compensation.committed", comp.committed);
  report.AddCounter("compensation.aborted", comp.aborted);
  report.AddCounter("compensation.compensation_ops", comp.compensation_ops);
  (void)report.Write();
}

void BM_LockingSim(benchmark::State& state) {
  WorkloadConfig config;
  config.num_txns = 300;
  config.service_duration = state.range(0);
  config.fault_probability = 0.05;
  for (auto _ : state) {
    SimResult r = RunLockingSimulation(config);
    benchmark::DoNotOptimize(r.committed);
  }
}
BENCHMARK(BM_LockingSim)->Arg(10)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_CompensationSim(benchmark::State& state) {
  WorkloadConfig config;
  config.num_txns = 300;
  config.service_duration = state.range(0);
  config.fault_probability = 0.05;
  for (auto _ : state) {
    SimResult r = RunCompensationSimulation(config);
    benchmark::DoNotOptimize(r.committed);
  }
}
BENCHMARK(BM_CompensationSim)->Arg(10)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = axmlx::bench::StripSmokeFlag(&argc, argv);
  if (!smoke) {
    PrintExperiment();
    PrintRealPeerExperiment();
  }
  WriteReport(smoke);
  if (smoke) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
